#include "snet/verify.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "snet/check.hpp"
#include "snet/router.hpp"

namespace snet {

const char* to_string(LintCode code) {
  switch (code) {
    case LintCode::UnroutableRecord:
      return "unroutable-record";
    case LintCode::DeadBranch:
      return "dead-branch";
    case LintCode::NeverFiringSync:
      return "never-firing-sync";
    case LintCode::StarNoProgress:
      return "star-no-progress";
    case LintCode::ConfigDetCapacity:
      return "config-det-capacity";
    case LintCode::ConfigDetUnused:
      return "config-det-unused";
    case LintCode::ConfigOutputCredit:
      return "config-output-credit";
    case LintCode::ConfigInboxCapacity:
      return "config-inbox-capacity";
  }
  return "unknown";
}

const char* to_string(LintSeverity severity) {
  return severity == LintSeverity::Error ? "error" : "warning";
}

std::string LintDiagnostic::to_string() const {
  std::string out = snet::to_string(severity);
  out += " [";
  out += snet::to_string(code);
  out += "] ";
  out += path;
  out += ": ";
  out += message;
  return out;
}

bool VerifyReport::has_errors() const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [](const LintDiagnostic& d) {
                       return d.severity == LintSeverity::Error;
                     });
}

std::size_t VerifyReport::count(LintCode code) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&](const LintDiagnostic& d) { return d.code == code; }));
}

std::string VerifyReport::to_string() const {
  std::string out;
  for (const auto& d : diagnostics) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

namespace {

void add_unique(std::vector<RecordType>& vs, const RecordType& v) {
  if (std::find(vs.begin(), vs.end(), v) == vs.end()) {
    vs.push_back(v);
  }
}

/// Per-run analysis state. Post-pass bookkeeping is keyed by tree
/// position: the path (matching the entity names `Network::instantiate`
/// would mint) together with the node there, since Serial hands one path
/// to both operands — in `(a|b) .. (c|d)` both parallels sit at "net/par".
struct Ctx {
  std::vector<LintDiagnostic> diags;

  using Position = std::pair<std::string, const NetNode*>;
  struct ParallelState {
    Net node;
    std::vector<ParallelBranch> branches;
    std::vector<MultiType> inputs;  // per branch: its required input
    std::vector<bool> hit;          // branch ever in the argmax set
  };

  std::map<Position, ParallelState> parallels;
  std::map<Position, std::vector<bool>> syncs;  // per slot: fillable
  // First-visit order, so post-pass diagnostics come out in topology order
  // rather than std::map order.
  std::vector<Position> parallel_order;
  std::vector<Position> sync_order;

  /// Emits once per (code, path, type): the star closure revisits interior
  /// components, and one defect should read as one diagnostic.
  void diag(LintCode code, LintSeverity severity, std::string path,
            std::string type, std::string message) {
    for (const auto& d : diags) {
      if (d.code == code && d.path == path && d.type == type) {
        return;
      }
    }
    diags.push_back(LintDiagnostic{code, severity, std::move(path),
                                   std::move(type), std::move(message)});
  }
};

RecordType type_of(const SigVariant& v) { return v.type(); }
const RecordType& type_of(const RecordType& t) { return t; }

/// The box and filter rule: a variant must carry every \p consumed label,
/// and each declared output variant inherits the rest (flow inheritance).
template <class Outputs>
MultiType consume(const Net& n, const MultiType& incoming,
                  const RecordType& consumed, const Outputs& outputs,
                  const std::string& path, Ctx& ctx) {
  std::vector<RecordType> out;
  for (const auto& v : incoming.variants()) {
    if (!consumed.included_in(v)) {
      const bool is_box = n->kind == NetNode::Kind::Box;
      ctx.diag(LintCode::UnroutableRecord, LintSeverity::Error,
               is_box ? path + "/box:" + n->name : path + "/filter",
               v.to_string(),
               (is_box ? "box " + n->name + " with input type " +
                             consumed.to_string()
                       : "filter " + n->filter->to_string()) +
                   " cannot accept records of type " + v.to_string());
      continue;
    }
    const RecordType excess = v.minus(consumed);
    for (const auto& o : outputs) {
      add_unique(out, type_of(o).union_with(excess));
    }
  }
  return MultiType(std::move(out));
}

/// Forward shape flow — the only implementation of the forward type
/// rules. Unhandleable variants become diagnostics and are dropped from
/// the flow instead of aborting the walk, so one pass reports every
/// defect; `propagate`/`infer` throw the first Error. Returns the
/// (lower-bound) output type set.
MultiType flow(const Net& n, const MultiType& incoming, const std::string& path,
               Ctx& ctx) {
  if (incoming.empty()) {
    return {};
  }
  switch (n->kind) {
    case NetNode::Kind::Box:
      return consume(n, incoming, n->sig.input.type(), n->sig.outputs, path,
                     ctx);
    case NetNode::Kind::Filter:
      return consume(n, incoming, n->filter->pattern().type,
                     n->filter->output_type().variants(), path, ctx);
    case NetNode::Kind::Serial:
      return flow(n->right, flow(n->left, incoming, path, ctx), path, ctx);
    case NetNode::Kind::Parallel: {
      // Parallel branches are scored over the flattened list the batched
      // runtime dispatches from. The scalar-ablation runtime keeps the
      // binary cascade, but its winner sets are identical, so verdicts
      // here cover both modes.
      const std::string dpath = path + "/par";
      const Ctx::Position pos{dpath, n.get()};
      auto [it, fresh] = ctx.parallels.try_emplace(pos);
      Ctx::ParallelState& st = it->second;
      if (fresh) {
        st.node = n;
        st.branches = parallel_branches(n, path);
        for (const auto& b : st.branches) {
          st.inputs.push_back(required_input(b.net));
        }
        st.hit.assign(st.branches.size(), false);
        ctx.parallel_order.push_back(pos);
      }
      const std::vector<ParallelBranch>& branches = st.branches;
      std::vector<std::vector<RecordType>> to(branches.size());
      for (const auto& v : incoming.variants()) {
        // The runtime router's own argmax collection over the same
        // flattened branch inputs: static verdict == dynamic tied set for
        // records of exactly this type, by construction.
        const std::vector<std::uint32_t> tied =
            detail::ParallelRouter::tied_for(st.inputs, v);
        if (tied.empty()) {
          ctx.diag(LintCode::UnroutableRecord, LintSeverity::Error, dpath,
                   v.to_string(),
                   "parallel combinator `" + describe(n) + "`: records of type " +
                       v.to_string() + " match no branch");
          continue;
        }
        for (const std::uint32_t b : tied) {
          st.hit[b] = true;
          add_unique(to[b], v);
        }
      }
      MultiType out;
      for (std::size_t b = 0; b < branches.size(); ++b) {
        if (!to[b].empty()) {
          out = out.union_with(flow(branches[b].net, MultiType(std::move(to[b])),
                                    branches[b].path, ctx));
        }
      }
      return out;
    }
    case NetNode::Kind::Star: {
      const std::string spath = path + "/star";
      // Closure over the unfolding: a variant either taps out (matches the
      // exit pattern's type — definitely, when there is no guard; possibly,
      // when a guard is present) or re-enters the replica; replica outputs
      // join the frontier until no new variant appears. All unfolded
      // stages share one static position — "star/rep*".
      std::vector<RecordType> exits;
      std::vector<RecordType> seen;
      std::vector<RecordType> frontier = incoming.variants();
      const MultiType child_in = required_input(n->child);
      while (!frontier.empty()) {
        std::vector<RecordType> to_child;
        for (const auto& v : frontier) {
          if (std::find(seen.begin(), seen.end(), v) != seen.end()) {
            continue;
          }
          seen.push_back(v);
          const bool may_exit = n->exit.type.included_in(v);
          const bool must_exit = may_exit && !n->exit.guard.has_value();
          if (may_exit) {
            add_unique(exits, v);
          }
          if (!must_exit) {
            if (!accepts_variant(child_in, v)) {
              ctx.diag(LintCode::UnroutableRecord, LintSeverity::Error, spath,
                       v.to_string(),
                       "serial replication `" + describe(n) +
                           "`: records of type " + v.to_string() +
                           " neither (unconditionally) match exit pattern " +
                           n->exit.to_string() +
                           " nor re-enter the replica (input type " +
                           child_in.to_string() + ")");
              continue;
            }
            add_unique(to_child, v);
          }
        }
        frontier.clear();
        if (!to_child.empty()) {
          frontier = flow(n->child, MultiType(std::move(to_child)),
                          spath + "/rep*", ctx)
                         .variants();
        }
      }
      // Progress is judged per visit: a star reached twice (say, inside
      // another star's replica) may tap out on one visit and livelock on
      // the other.
      if (exits.empty()) {
        ctx.diag(LintCode::StarNoProgress, LintSeverity::Error, spath,
                 n->exit.to_string(),
                 "serial replication `" + describe(n) +
                     "`: no record can ever match the exit pattern " +
                     n->exit.to_string() +
                     " — records circulate in the replica chain without "
                     "progress");
      }
      return MultiType(std::move(exits));
    }
    case NetNode::Kind::Split: {
      const std::string dpath = path + "/split";
      std::vector<RecordType> ok;
      for (const auto& v : incoming.variants()) {
        if (!v.contains(n->split_tag)) {
          ctx.diag(LintCode::UnroutableRecord, LintSeverity::Error, dpath,
                   v.to_string(),
                   "parallel replication `" + describe(n) +
                       "`: records of type " + v.to_string() +
                       " lack the replication tag " +
                       label_display(n->split_tag));
          continue;
        }
        ok.push_back(v);
      }
      // Every tag value shares one replica topology; "split[*]" stands for
      // the demand-unfolded "split[value]" family.
      return flow(n->child, MultiType(std::move(ok)), dpath + "[*]", ctx);
    }
    case NetNode::Kind::Sync: {
      const std::string cpath = path + "/sync";
      const Ctx::Position pos{cpath, n.get()};
      auto [it, fresh] =
          ctx.syncs.try_emplace(pos, n->sync_patterns.size(), false);
      std::vector<bool>& fillable = it->second;
      if (fresh) {
        ctx.sync_order.push_back(pos);
      }
      RecordType merged;
      for (std::size_t i = 0; i < n->sync_patterns.size(); ++i) {
        const Pattern& p = n->sync_patterns[i];
        merged = merged.union_with(p.type);
        for (const auto& v : incoming.variants()) {
          if (p.type.included_in(v)) {
            fillable[i] = true;
          }
        }
      }
      // Pass-through variants plus the merged record (lower bound: the
      // union of all pattern labels with any triggering variant).
      std::vector<RecordType> out = incoming.variants();
      for (const auto& v : incoming.variants()) {
        add_unique(out, merged.union_with(v));
      }
      return MultiType(std::move(out));
    }
  }
  ctx.diag(LintCode::UnroutableRecord, LintSeverity::Error, path, "",
           "corrupt network node");
  return {};
}

// ------------------------------------------------------------ config lint

/// Structural walk visiting every node with its instantiate-style path
/// (types not needed — config lints are about the topology's shape).
template <class Fn>
void walk_topology(const Net& n, const std::string& path, Fn&& fn) {
  fn(n, path);
  switch (n->kind) {
    case NetNode::Kind::Box:
    case NetNode::Kind::Filter:
    case NetNode::Kind::Sync:
      return;
    case NetNode::Kind::Serial:
      walk_topology(n->left, path, fn);
      walk_topology(n->right, path, fn);
      return;
    case NetNode::Kind::Parallel:
      for (const auto& b : parallel_branches(n, path)) {
        walk_topology(b.net, b.path, fn);
      }
      return;
    case NetNode::Kind::Star:
      walk_topology(n->child, path + "/star/rep*", fn);
      return;
    case NetNode::Kind::Split:
      walk_topology(n->child, path + "/split[*]", fn);
      return;
  }
}

/// The number of records one injected record is *guaranteed* to produce —
/// the sound lower bound on fan-out. Boxes are opaque functions (may emit
/// nothing: 0); a filter always emits exactly one record per output
/// specifier; a star's record may tap out immediately; a sync may store.
/// Saturated to keep serial products from overflowing.
std::size_t min_fanout(const Net& n) {
  constexpr std::size_t kCap = 1u << 20;
  switch (n->kind) {
    case NetNode::Kind::Box:
      return 0;
    case NetNode::Kind::Filter:
      return n->filter->outputs().size();
    case NetNode::Kind::Serial: {
      const std::size_t l = min_fanout(n->left);
      const std::size_t r = min_fanout(n->right);
      if (l == 0 || r == 0) {
        return 0;
      }
      return l > kCap / r ? kCap : l * r;
    }
    case NetNode::Kind::Parallel:
      return std::min(min_fanout(n->left), min_fanout(n->right));
    case NetNode::Kind::Star:
      return min_fanout(n->child) == 0 ? 0 : 1;
    case NetNode::Kind::Split:
      return min_fanout(n->child);
    case NetNode::Kind::Sync:
      return 0;
  }
  return 0;
}

void config_lint(const Net& net, const VerifyOptions& opts, Ctx& ctx) {
  bool has_det = false;
  bool has_sync = false;
  walk_topology(net, "net", [&](const Net& n, const std::string& path) {
    switch (n->kind) {
      case NetNode::Kind::Parallel:
      case NetNode::Kind::Star:
      case NetNode::Kind::Split:
        has_det = has_det || n->det;
        break;
      case NetNode::Kind::Sync: {
        has_sync = true;
        // A synchrocell must hold (slots - 1) records in its interior
        // before the completing record can ever fire the merge. A det/sync
        // cap below that is a statically-guaranteed wedge: FailFast errors
        // the session before the first merge, Spill throttles it forever.
        const std::size_t prefill = n->sync_patterns.size() - 1;
        if (opts.det_capacity > 0 && prefill > opts.det_capacity) {
          ctx.diag(
              LintCode::ConfigDetCapacity,
              opts.det_fail_fast ? LintSeverity::Error : LintSeverity::Warning,
              path + "/sync", std::to_string(opts.det_capacity),
              "det_capacity=" + std::to_string(opts.det_capacity) +
                  " is below the " + std::to_string(prefill) +
                  " records this synchrocell must buffer before it can fire: " +
                  (opts.det_fail_fast
                       ? "every session hits SessionOverflowError (FailFast) "
                         "before the first merge"
                       : "every session is spill-throttled before the first "
                         "merge"));
        }
        break;
      }
      case NetNode::Kind::Filter: {
        // One input record bursts outputs().size() records into the next
        // inbox in one emission; a bound below the burst parks the filter
        // inside every single quantum — lockstep throughput, the
        // backpressure machinery degenerates into a handbrake.
        const std::size_t burst = n->filter->outputs().size();
        if (opts.inbox_capacity > 0 && burst > opts.inbox_capacity) {
          ctx.diag(LintCode::ConfigInboxCapacity, LintSeverity::Warning,
                   path + "/filter", std::to_string(opts.inbox_capacity),
                   "inbox_capacity=" + std::to_string(opts.inbox_capacity) +
                       " is below this filter's " + std::to_string(burst) +
                       "-record single-input burst: the producer stalls on "
                       "every record it processes");
        }
        break;
      }
      default:
        break;
    }
  });
  if (opts.det_capacity > 0 && !has_det && !has_sync) {
    ctx.diag(LintCode::ConfigDetUnused, LintSeverity::Warning, "net",
             std::to_string(opts.det_capacity),
             "det_capacity=" + std::to_string(opts.det_capacity) +
                 " configured, but the topology has no deterministic "
                 "combinator or synchrocell to charge it against");
  }
  const std::size_t fanout = min_fanout(net);
  if (opts.output_capacity > 0 && fanout > opts.output_capacity) {
    ctx.diag(LintCode::ConfigOutputCredit, LintSeverity::Warning, "net",
             std::to_string(opts.output_capacity),
             "output_capacity=" + std::to_string(opts.output_capacity) +
                 " is below the " + std::to_string(fanout) +
                 " outputs one injected record is guaranteed to produce: a "
                 "session that injects before collecting wedges on its own "
                 "output credit");
  }
}

}  // namespace

namespace detail {

ShapeFlow shape_flow(const Net& net, const MultiType& seed,
                     const VerifyOptions& opts) {
  Ctx ctx;
  ShapeFlow result;
  result.output = flow(net, seed, "net", ctx);
  for (const auto& d : ctx.diags) {
    if (d.severity == LintSeverity::Error) {
      result.type_error = d.message;
      break;
    }
  }

  // Post-pass: liveness verdicts need the whole reachable set.
  for (const auto& pos : ctx.parallel_order) {
    const Ctx::ParallelState& st = ctx.parallels.at(pos);
    for (std::size_t b = 0; b < st.hit.size(); ++b) {
      if (!st.hit[b]) {
        const std::string branch = describe(st.branches[b].net);
        ctx.diag(LintCode::DeadBranch, LintSeverity::Warning,
                 st.branches[b].path, branch,
                 "parallel combinator `" + describe(st.node) + "`: branch `" +
                     branch +
                     "` is never the best-match winner for any reachable "
                     "record type (records may still arrive if clients "
                     "inject wider types than the declared signature)");
      }
    }
  }
  for (const auto& pos : ctx.sync_order) {
    const std::vector<bool>& fillable = ctx.syncs.at(pos);
    for (std::size_t i = 0; i < fillable.size(); ++i) {
      if (!fillable[i]) {
        const Pattern& p = pos.second->sync_patterns[i];
        ctx.diag(LintCode::NeverFiringSync, LintSeverity::Warning, pos.first,
                 p.to_string(),
                 "synchrocell: no reachable record type fills pattern slot " +
                     p.to_string() +
                     " — the cell can never fire, and records matching its "
                     "other slots are stored forever");
      }
    }
  }

  config_lint(net, opts, ctx);
  result.report.diagnostics = std::move(ctx.diags);
  return result;
}

}  // namespace detail

VerifyReport verify(const Net& net, const VerifyOptions& opts) {
  if (!net) {
    throw std::invalid_argument("verify: null topology");
  }
  const MultiType seed = opts.seed.empty() ? required_input(net) : opts.seed;
  return detail::shape_flow(net, seed, opts).report;
}

}  // namespace snet

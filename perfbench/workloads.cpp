#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>

#include "sacpp/with_loop.hpp"
#include "sudoku/nets.hpp"
#include "sudoku/solver.hpp"

namespace perfbench {

void Tracing::reset_window() {
  box.calls.store(0);
  box.self_ns.store(0);
  deliveries.store(0);
  box_deliveries.store(0);
  stats_box_records = stats_records_in = quanta = steals = entities = 0;
  first_hop_us.clear();
  construct_us.clear();
  teardown_us.clear();
}

struct Runner::Slot {
  std::int64_t job_id = 0;
  std::uint32_t session_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t inject_ns = 0;
  std::int64_t injected_ns = 0;
  std::int64_t done_ns = 0;
  std::atomic<std::int64_t> first_box_ns{0};
  int outputs = 0;
  snet::Record result;
  snet::Session session;
};

namespace {

/// A job that produces nothing for this long is counted as missing.
constexpr auto kJobTimeout = std::chrono::seconds(30);

void stamp_first_box(std::atomic<std::int64_t>& first) {
  if (first.load(std::memory_order_relaxed) == 0) {
    std::int64_t expected = 0;
    first.compare_exchange_strong(expected, now_ns(), std::memory_order_relaxed);
  }
}

}  // namespace

Runner::Runner(JobSet jobs, Mode mode, unsigned in_flight, unsigned workers,
               Tracing* tracing)
    : jobs_(std::move(jobs)),
      mode_(mode),
      in_flight_(std::max(1u, in_flight)),
      workers_(workers),
      tracing_(tracing),
      topology_(tracing != nullptr ? instrument(jobs_.topology, tracing->box, tracing->log)
                                   : jobs_.topology) {
  if (mode_ == Mode::Stream) {
    const std::int64_t t0 = now_ns();
    net_ = std::make_unique<snet::Network>(topology_, options(nullptr));
    const std::int64_t t1 = now_ns();
    if (tracing_ != nullptr) {
      tracing_->log.add("construct", t0, t1, -1);
      tracing_->construct_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
  }
}

Runner::~Runner() { teardown(); }

void Runner::teardown() {
  if (!net_) {
    return;
  }
  const std::int64_t t0 = now_ns();
  net_.reset();
  const std::int64_t t1 = now_ns();
  if (tracing_ != nullptr) {
    tracing_->log.add("teardown", t0, t1, -1);
    tracing_->teardown_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
}

snet::Options Runner::options(Slot* fresh_slot) {
  snet::Options opts;
  opts.workers = workers_;
  if (tracing_ != nullptr) {
    opts.trace = [this, fresh_slot](const std::string& entity, const snet::Record& r) {
      tracing_->deliveries.fetch_add(1, std::memory_order_relaxed);
      if (entity.find("box:") == std::string::npos) {
        return;
      }
      tracing_->box_deliveries.fetch_add(1, std::memory_order_relaxed);
      Slot* slot = fresh_slot;
      if (slot == nullptr && r.session_state() != nullptr) {
        // Stream mode: the session stamp names the job. Sessions of one
        // pass are opened in job order, so their ids are consecutive.
        Slot* base = slots_base_.load(std::memory_order_acquire);
        const std::uint32_t idx =
            r.session_state()->id() - base_session_.load(std::memory_order_acquire);
        if (base != nullptr && idx < slots_n_.load(std::memory_order_acquire) &&
            base[idx].session_id == r.session_state()->id()) {
          slot = &base[idx];
        }
      }
      if (slot != nullptr) {
        stamp_first_box(slot->first_box_ns);
      }
    };
  }
  return opts;
}

void Runner::note_stats(const snet::NetworkStats& s, int sign) {
  std::uint64_t records_in = 0;
  for (const auto& e : s.entities) {
    records_in += e.records_in;
  }
  const auto add = [sign](std::uint64_t& total, std::uint64_t v) {
    total = sign > 0 ? total + v : total - v;  // unsigned wrap cancels out
  };
  add(tracing_->stats_box_records, s.records_in_containing("box:"));
  add(tracing_->stats_records_in, records_in);
  add(tracing_->quanta, s.quanta);
  add(tracing_->steals, s.steals);
  add(tracing_->entities, s.entity_count());
}

void Runner::run(double seconds, int min_passes, Window& w) {
  const std::size_t n = jobs_.inputs.size();
  auto slots = std::make_unique<Slot[]>(n);
  if (tracing_ != nullptr && mode_ == Mode::Stream) {
    note_stats(net_->stats(), -1);
  }
  double timed = 0;
  for (int pass = 0; pass < min_passes || timed < seconds; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      Slot& s = slots[i];
      s.job_id = next_job_id_++;
      s.first_box_ns.store(0);
      s.outputs = 0;
    }
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    if (mode_ == Mode::Stream) {
      stream_pass(slots.get(), n);
    } else {
      fresh_pass(slots.get(), n);
    }
    const std::int64_t t1 = now_ns();
    const double cpu1 = process_cpu_s();
    const double wall = static_cast<double>(t1 - t0) / 1e9;
    w.cpu_s += cpu1 - cpu0;
    w.pass_jobs_per_s.push_back(static_cast<double>(n) / wall);
    w.pass_cpu_ms_per_job.push_back((cpu1 - cpu0) * 1e3 / static_cast<double>(n));
    timed += wall;

    // Outside the timed window: check every result.
    for (std::size_t i = 0; i < n; ++i) {
      Slot& s = slots[i];
      ++w.jobs;
      std::string why = s.outputs == 0 ? std::string("no output")
                                       : jobs_.check(i, s.result, s.outputs);
      if (s.outputs > 0) {
        w.latency_ms.push_back(static_cast<double>(s.done_ns - s.start_ns) / 1e6);
      }
      if (!why.empty()) {
        ++w.failed;
        if (w.errors.size() < 5) {
          w.errors.push_back("job " + std::to_string(i) + ": " + why);
        }
      }
      if (tracing_ != nullptr) {
        tracing_->log.add("inject", s.inject_ns, s.injected_ns, s.job_id);
        if (s.outputs > 0) {
          tracing_->log.add("job", s.start_ns, s.done_ns, s.job_id);
        }
        if (s.first_box_ns.load() != 0) {
          tracing_->first_hop_us.push_back(
              static_cast<double>(s.first_box_ns.load() - s.inject_ns) / 1e3);
        }
      }
      s.result = snet::Record();
    }
  }
  if (tracing_ != nullptr && mode_ == Mode::Stream) {
    note_stats(net_->stats(), +1);
  }
}

void Runner::stream_pass(Slot* slots, std::size_t n) {
  slots_base_.store(nullptr, std::memory_order_release);
  std::size_t next = 0;
  std::size_t in_flight = 0;
  std::size_t finished = 0;
  std::vector<std::size_t> ready;
  while (finished < n) {
    while (in_flight < in_flight_ && next < n) {
      const std::size_t i = next++;
      Slot& s = slots[i];
      s.start_ns = now_ns();
      s.session = net_->open_session();
      s.session_id = s.session.id();
      if (i == 0) {
        base_session_.store(s.session_id, std::memory_order_release);
        slots_n_.store(n, std::memory_order_release);
        slots_base_.store(slots, std::memory_order_release);
      }
      s.session.output().on_output([this, &s, i](snet::Record r) {
        const std::int64_t t = now_ns();
        const std::lock_guard<std::mutex> lock(done_mu_);
        if (s.outputs++ == 0) {
          s.done_ns = t;
          s.result = std::move(r);
          done_.push_back(i);
          done_cv_.notify_one();
        }
      });
      s.inject_ns = now_ns();
      s.session.input().inject(jobs_.inputs[i]);
      s.injected_ns = now_ns();
      s.session.close();
      ++in_flight;
    }
    std::unique_lock<std::mutex> lock(done_mu_);
    if (!done_cv_.wait_for(lock, kJobTimeout, [this] { return !done_.empty(); })) {
      break;  // the jobs still in flight are reported as missing
    }
    ready.swap(done_);
    lock.unlock();
    in_flight -= ready.size();
    finished += ready.size();
    ready.clear();
  }
  // Every job's results are in once the network is quiescent: a job that
  // produced more than one output is caught by its check.
  net_->wait();
  for (std::size_t i = 0; i < n; ++i) {
    slots[i].session = snet::Session();
  }
  slots_base_.store(nullptr, std::memory_order_release);
}

void Runner::fresh_pass(Slot* slots, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    Slot& s = slots[i];
    if (tracing_ != nullptr) {
      tracing_->box.current_job.store(s.job_id, std::memory_order_relaxed);
    }
    s.start_ns = now_ns();
    std::int64_t torn = 0;
    {
      snet::Network net(topology_, options(&s));
      s.inject_ns = now_ns();
      net.input().inject(jobs_.inputs[i]);
      s.injected_ns = now_ns();
      net.input().close();
      if (auto r = net.output().next()) {
        s.done_ns = now_ns();
        s.result = std::move(*r);
        s.outputs = 1;
        while (net.output().next()) {
          ++s.outputs;
        }
      }
      if (tracing_ != nullptr) {
        note_stats(net.stats(), +1);
        tracing_->log.add("construct", s.start_ns, s.inject_ns, s.job_id);
        tracing_->construct_us.push_back(static_cast<double>(s.inject_ns - s.start_ns) / 1e3);
      }
      torn = now_ns();
    }
    if (tracing_ != nullptr) {
      const std::int64_t t = now_ns();
      tracing_->log.add("teardown", torn, t, s.job_id);
      tracing_->teardown_us.push_back(static_cast<double>(t - torn) / 1e3);
    }
  }
}

// ---------------------------------------------------------------- sudoku

namespace {

/// The clue band and the search-tree size band of the generated puzzles
/// (see make_puzzles).
constexpr int kMinClues = 25;
constexpr int kMaxClues = 33;
constexpr std::int64_t kMinTreeNodes = 80;
constexpr std::int64_t kMaxTreeNodes = 160;

bool to_cells(const sudoku::BoardArray& b, Cells& c) {
  if (b.dim() != 2 || b.shape().extent(0) != 9 || b.shape().extent(1) != 9) {
    return false;
  }
  for (std::int64_t k = 0; k < 81; ++k) {
    const int v = b.linear(k);
    if (v < 0 || v > 9) {
      return false;
    }
    c[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(v);
  }
  return true;
}

}  // namespace

sudoku::BoardArray to_board(const Cells& c) {
  std::vector<int> v(c.begin(), c.end());
  return sudoku::BoardArray(sac::Shape{9, 9}, std::move(v));
}

SudokuInputs make_sudoku_inputs(std::uint64_t seed, int count) {
  SudokuInputs in;
  in.puzzles = make_puzzles(seed, count, kMinClues, kMaxClues, kMinTreeNodes, kMaxTreeNodes);
  for (const auto& p : in.puzzles) {
    in.program_counts.push_back(sudoku::count_solutions(to_board(p.cells), 2));
  }
  return in;
}

JobSet fig2_jobs(const SudokuInputs& in) {
  JobSet set;
  set.topology = sudoku::fig2_net();
  for (const auto& p : in.puzzles) {
    set.inputs.push_back(sudoku::board_record(to_board(p.cells)));
  }
  set.check = [&in](std::size_t i, const snet::Record& out, int outputs) -> std::string {
    const Puzzle& p = in.puzzles[i];
    if (in.program_counts[i] != 1) {
      return "count_solutions(p, 2) = " + std::to_string(in.program_counts[i]) +
             " on a puzzle the oracle proved unique: " + cells_to_line(p.cells);
    }
    if (outputs != 1) {
      return std::to_string(outputs) + " outputs for a unique puzzle";
    }
    if (!out.has_field("board") || !out.has_tag("done")) {
      return "output record is not {board, <done>}";
    }
    Cells c{};
    if (!to_cells(out.get<sudoku::BoardArray>("board"), c)) {
      return "output board is not a 9x9 board";
    }
    if (!oracle_solves(p.cells, c)) {
      return "output board breaks a rule or a given";
    }
    if (c != p.solution) {
      return "output board differs from the oracle's solution";
    }
    return {};
  };
  return set;
}

// --------------------------------------------------------------- stencil

Grid jacobi_step(const Grid& g, double alpha, const sac::Context& ctx) {
  const std::int64_t n = g.shape().extent(0);
  return sac::With<double>()
      .gen({1, 1}, {n - 1, n - 1},
           [&](const sac::Index& iv) {
             const auto i = iv[0];
             const auto j = iv[1];
             const double centre = g[{i, j}];
             const double around = g[{i - 1, j}] + g[{i + 1, j}] +
                                   g[{i, j - 1}] + g[{i, j + 1}];
             return centre + alpha * (around / 4.0 - centre);
           })
      .modarray(g, ctx);
}

double stencil_alpha(std::int64_t id) { return 0.5 + 0.05 * static_cast<double>(id % 8); }

StencilInputs make_stencil_inputs(std::uint64_t seed, int instances, std::int64_t side,
                                  int steps) {
  StencilInputs in;
  in.side = side;
  in.steps = steps;
  std::mt19937_64 rng(seed ^ 0x5DEECE66DULL);
  std::uniform_real_distribution<double> temp(0.0, 100.0);
  for (int id = 0; id < instances; ++id) {
    std::vector<double> cells(static_cast<std::size_t>(side * side));
    for (double& c : cells) {
      c = temp(rng);
    }
    in.lo.push_back(*std::min_element(cells.begin(), cells.end()));
    in.hi.push_back(*std::max_element(cells.begin(), cells.end()));
    std::vector<double> cur = cells;
    std::vector<double> next;
    for (int s = 0; s < steps; ++s) {
      jacobi_reference_step(cur, next, side, stencil_alpha(id));
      cur.swap(next);
    }
    in.reference.push_back(std::move(cur));
    in.initial.emplace_back(sac::Shape{side, side}, std::move(cells));
  }
  return in;
}

JobSet stencil_jobs(const StencilInputs& in) {
  using namespace snet;
  JobSet set;
  auto step = box("jacobiStep", "(grid, <id>, <iter>) -> (grid, <id>, <iter>)",
                  [](const BoxInput& bin, BoxOutput& out) {
                    const auto& g = bin.get<Grid>("grid");
                    const std::int64_t id = bin.tag("id");
                    out.out(1, make_value(jacobi_step(g, stencil_alpha(id), sac::default_context())), id,
                            bin.tag("iter") + 1);
                  });
  const Pattern exit(RecordType::of({}, {"iter"}),
                     TagExpr::tag("iter") >= TagExpr::lit(in.steps));
  set.topology = star(split(step, "id"), exit);
  for (std::size_t id = 0; id < in.initial.size(); ++id) {
    Record r;
    r.set_field("grid", make_value(in.initial[id]));
    r.set_tag("id", static_cast<std::int64_t>(id));
    r.set_tag("iter", 0);
    set.inputs.push_back(std::move(r));
  }
  // Reference tolerance: the program evaluates the same expression in the
  // same order, so the only admissible difference is rounding.
  constexpr double kTol = 1e-9;
  set.check = [&in](std::size_t id, const Record& out, int outputs) -> std::string {
    if (outputs != 1) {
      return std::to_string(outputs) + " outputs for one instance";
    }
    if (!out.has_field("grid") || !out.has_tag("iter") || !out.has_tag("id")) {
      return "output record is not {grid, <id>, <iter>}";
    }
    if (out.tag("iter") != in.steps) {
      return "<iter> = " + std::to_string(out.tag("iter")) + ", expected " +
             std::to_string(in.steps);
    }
    if (out.tag("id") != static_cast<std::int64_t>(id)) {
      return "<id> changed";
    }
    const Grid& g = out.get<Grid>("grid");
    const std::int64_t n = in.side;
    if (g.dim() != 2 || g.shape().extent(0) != n || g.shape().extent(1) != n) {
      return "grid shape changed";
    }
    const auto& got = g.data();
    const auto& init = in.initial[id].data();
    const auto& ref = in.reference[id];
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        const auto k = static_cast<std::size_t>(i * n + j);
        const double v = got[k];
        if (!(v >= in.lo[id] - kTol && v <= in.hi[id] + kTol)) {
          return "value outside the initial range (maximum principle)";
        }
        if ((i == 0 || j == 0 || i == n - 1 || j == n - 1) && v != init[k]) {
          return "boundary cell changed";
        }
        if (std::abs(v - ref[k]) > kTol) {
          return "differs from the plain-loop reference at (" + std::to_string(i) +
                 ", " + std::to_string(j) + ")";
        }
      }
    }
    return {};
  };
  return set;
}

}  // namespace perfbench

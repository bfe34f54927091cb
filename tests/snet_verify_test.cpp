/// Whole-topology shape-flow verification (verify.hpp): every diagnostic
/// class on a purpose-built fixture, zero diagnostics on the shipped
/// example topologies, the Options::verify wiring into Network
/// construction, and the DOT overlay.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "snet/check.hpp"
#include "snet/dot.hpp"
#include "snet/net.hpp"
#include "snet/network.hpp"
#include "snet/router.hpp"
#include "snet/verify.hpp"
#include "sudoku/nets.hpp"

using namespace snet;

namespace {

const BoxFn kNop = [](const BoxInput&, BoxOutput&) {};

Net mkbox(const std::string& name, const std::string& sig) {
  return box(name, sig, kNop);
}

/// The negative fixture's topology (examples/networks/broken_dead_branch):
/// every record leaving `classify` is {x,a,b}; `wide` scores 3, `narrow`
/// scores 2 — narrow is never the best-match winner.
Net dead_branch_net() {
  return mkbox("classify", "(x) -> (x, a, b)") >>
         parallel(mkbox("wide", "(x, a, b) -> (x)"),
                  mkbox("narrow", "(x, a) -> (x)"));
}

const LintDiagnostic* find(const VerifyReport& report, LintCode code) {
  for (const auto& d : report.diagnostics) {
    if (d.code == code) {
      return &d;
    }
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------- dead branch

TEST(Verify, DeadBranchReported) {
  const VerifyReport report = verify(dead_branch_net());
  ASSERT_EQ(report.count(LintCode::DeadBranch), 1U) << report.to_string();
  const LintDiagnostic* d = find(report, LintCode::DeadBranch);
  EXPECT_EQ(d->severity, LintSeverity::Warning);
  EXPECT_EQ(d->path, "net/parR");
  EXPECT_EQ(d->type, "narrow");
  EXPECT_NE(d->message.find("never the best-match winner"), std::string::npos);
  // Lower-bound semantics: a dead branch is a warning, not an error — a
  // wider-than-declared client record could still win it.
  EXPECT_FALSE(report.has_errors()) << report.to_string();
  EXPECT_NE(d->to_string().find("warning [dead-branch] net/parR:"),
            std::string::npos);
}

TEST(Verify, DeadBranchPathsFollowFlattening) {
  // Nested non-det parallels flatten; the dead branch is addressed by its
  // position in the binary tree: right child of the left parallel.
  const Net n = mkbox("classify", "(x) -> (x, a, b)") >>
                parallel(parallel(mkbox("wide", "(x, a, b) -> (x)"),
                                  mkbox("narrow", "(x, a) -> (x)")),
                         mkbox("other", "(y) -> (y)"));
  const VerifyReport report = verify(n);
  // `other` ({y}: no reachable record matches) and `narrow` are both dead.
  ASSERT_EQ(report.count(LintCode::DeadBranch), 2U) << report.to_string();
  std::vector<std::string> paths;
  for (const auto& d : report.diagnostics) {
    if (d.code == LintCode::DeadBranch) {
      paths.push_back(d.path);
    }
  }
  EXPECT_NE(std::find(paths.begin(), paths.end(), "net/parL/parR"), paths.end());
  EXPECT_NE(std::find(paths.begin(), paths.end(), "net/parR"), paths.end());
}

// ---------------------------------------------------------- unroutable record

TEST(Verify, UnroutableAtParallelIsError) {
  // gen emits {y}; neither branch accepts it. `infer` throws on this
  // topology; the verifier reports the same defect as a diagnostic, plus
  // the branches it strands.
  const Net n = mkbox("gen", "(x) -> (y)") >>
                parallel(mkbox("a", "(x) -> (u)"), mkbox("b", "(z) -> (v)"));
  EXPECT_THROW(infer(n), TypeCheckError);
  const VerifyReport report = verify(n);
  EXPECT_TRUE(report.has_errors());
  ASSERT_EQ(report.count(LintCode::UnroutableRecord), 1U) << report.to_string();
  const LintDiagnostic* d = find(report, LintCode::UnroutableRecord);
  EXPECT_EQ(d->severity, LintSeverity::Error);
  EXPECT_EQ(d->path, "net/par");
  EXPECT_EQ(d->type, "{y}");
  EXPECT_NE(d->message.find("match no branch"), std::string::npos);
  // Both branches are stranded by the dropped variant.
  EXPECT_EQ(report.count(LintCode::DeadBranch), 2U) << report.to_string();
}

TEST(Verify, UnroutableAtBoxNamesTheBox) {
  const Net n = mkbox("gen", "(x) -> (y)") >> mkbox("consume", "(q) -> (z)");
  const VerifyReport report = verify(n);
  ASSERT_EQ(report.count(LintCode::UnroutableRecord), 1U) << report.to_string();
  const LintDiagnostic* d = find(report, LintCode::UnroutableRecord);
  EXPECT_EQ(d->severity, LintSeverity::Error);
  EXPECT_EQ(d->path, "net/box:consume");
  EXPECT_EQ(d->type, "{y}");
}

TEST(Verify, UnroutableAtSplitWithoutTag) {
  // {x} records reach the parallel replication without the <k> tag.
  const Net n = split(mkbox("w", "(x) -> (y)"), "k");
  const VerifyReport report =
      verify(n, VerifyOptions{MultiType({RecordType::of({"x"})}), 0, false, 0, 0});
  ASSERT_EQ(report.count(LintCode::UnroutableRecord), 1U) << report.to_string();
  const LintDiagnostic* d = find(report, LintCode::UnroutableRecord);
  EXPECT_EQ(d->severity, LintSeverity::Error);
  EXPECT_EQ(d->path, "net/split");
  EXPECT_NE(d->message.find("lack the replication tag"), std::string::npos);
}

TEST(Verify, CleanSerialChainHasNoDiagnostics) {
  const Net n = mkbox("a", "(x) -> (y)") >> mkbox("b", "(y) -> (z)");
  EXPECT_TRUE(verify(n).empty());
}

// ---------------------------------------------------------- never-firing sync

TEST(Verify, NeverFiringSyncSlotReported) {
  // Only {a} records are reachable: the {b} slot can never be filled, so
  // the cell stores every {a} record forever and never fires.
  const Net n = mkbox("src", "(a) -> (a)") >> sync({"{a}", "{b}"});
  const VerifyReport report = verify(n);
  ASSERT_EQ(report.count(LintCode::NeverFiringSync), 1U) << report.to_string();
  const LintDiagnostic* d = find(report, LintCode::NeverFiringSync);
  EXPECT_EQ(d->severity, LintSeverity::Warning);
  EXPECT_EQ(d->path, "net/sync");
  EXPECT_EQ(d->type, "{b}");
  EXPECT_NE(d->message.find("can never fire"), std::string::npos);
  EXPECT_FALSE(report.has_errors()) << report.to_string();
}

TEST(Verify, FillableSyncIsClean) {
  // Seeded with both slot types the same cell is fine.
  const VerifyReport report = verify(
      sync({"{a}", "{b}"}),
      VerifyOptions{
          MultiType({RecordType::of({"a"}), RecordType::of({"b"})}), 0, false,
          0, 0});
  EXPECT_EQ(report.count(LintCode::NeverFiringSync), 0U) << report.to_string();
}

TEST(Verify, SerialSyncsTrackTheirOwnSlots) {
  // Both cells sit at "net/sync". The second one's three slots are
  // unreachable from {a} | {b}, and must be judged on their own.
  const Net n = sync({"{a}", "{b}"}) >> sync({"{c}", "{d}", "{e}"});
  const VerifyReport report = verify(n);
  EXPECT_EQ(report.count(LintCode::NeverFiringSync), 3U) << report.to_string();
  for (const auto& d : report.diagnostics) {
    EXPECT_EQ(d.path, "net/sync");
    EXPECT_NE(d.type, "{a}") << report.to_string();
    EXPECT_NE(d.type, "{b}") << report.to_string();
  }
}

TEST(Verify, SerialParallelsAreScoredSeparately) {
  const Net n =
      parallel(mkbox("A", "(a) -> (x)"), mkbox("B", "(b) -> (y)")) >>
      parallel(mkbox("C", "(x) -> (p)"), mkbox("D", "(y) -> (q)"));
  const VerifyReport report = verify(n);
  EXPECT_TRUE(report.empty()) << report.to_string();
}

// ------------------------------------------------------------- star progress

TEST(Verify, StarNoProgressIsError) {
  // The replica maps {x} to {x}: the exit pattern {<done>} is unreachable
  // and records circulate forever. `infer` rejects this topology too;
  // the verifier pinpoints it.
  const Net n = star(mkbox("loop", "(x) -> (x)"), "{<done>}");
  EXPECT_THROW(infer(n), TypeCheckError);
  const VerifyReport report = verify(n);
  EXPECT_TRUE(report.has_errors());
  ASSERT_EQ(report.count(LintCode::StarNoProgress), 1U) << report.to_string();
  const LintDiagnostic* d = find(report, LintCode::StarNoProgress);
  EXPECT_EQ(d->severity, LintSeverity::Error);
  EXPECT_EQ(d->path, "net/star");
  EXPECT_EQ(d->type, "{<done>}");
}

TEST(Verify, NestedStarProgressJudgedPerVisit) {
  // The outer star's first round feeds {p, <done>} to the inner star, which
  // taps it out at once; its second round feeds {p}, which circulates in
  // the inner star forever. One visit reaching the exit must not excuse
  // the other.
  const Net inner = star(mkbox("f", "(p) -> (p)"), "{<done>}");
  const Net n = filter("{p} -> {p, <done>=1}") >>
                star(inner >> filter("{p, <done>} -> {p}; {p, <out>=1}"),
                     "{<out>}");
  EXPECT_THROW(infer(n), TypeCheckError);
  const VerifyReport report = verify(n);
  ASSERT_EQ(report.count(LintCode::StarNoProgress), 1U) << report.to_string();
  const LintDiagnostic* d = find(report, LintCode::StarNoProgress);
  EXPECT_EQ(d->severity, LintSeverity::Error);
  EXPECT_EQ(d->path, "net/star/rep*/star");
  EXPECT_EQ(d->type, "{<done>}");
}

TEST(Verify, StarWithReachableExitIsClean) {
  const Net n = star(
      mkbox("step", "(board, opts) -> (board, opts) | (board, <done>)"),
      "{<done>}");
  EXPECT_TRUE(verify(n).empty());
}

// --------------------------------------------------------------- config lint

TEST(Verify, SyncPrefillAboveDetCapacity) {
  const Net n = sync({"{a}", "{b}", "{c}"});
  VerifyOptions opts;
  opts.seed = MultiType({RecordType::of({"a"}), RecordType::of({"b"}),
                         RecordType::of({"c"})});
  opts.det_capacity = 1;  // the cell must buffer 2 records before firing
  opts.det_fail_fast = true;
  const VerifyReport fail_fast = verify(n, opts);
  ASSERT_EQ(fail_fast.count(LintCode::ConfigDetCapacity), 1U)
      << fail_fast.to_string();
  const LintDiagnostic* d = find(fail_fast, LintCode::ConfigDetCapacity);
  EXPECT_EQ(d->severity, LintSeverity::Error) << "FailFast wedge is an error";
  EXPECT_EQ(d->path, "net/sync");

  opts.det_fail_fast = false;
  const VerifyReport spilled = verify(n, opts);
  const LintDiagnostic* spill = find(spilled, LintCode::ConfigDetCapacity);
  ASSERT_NE(spill, nullptr);
  EXPECT_EQ(spill->severity, LintSeverity::Warning) << "Spill throttles only";

  opts.det_capacity = 2;  // exactly the prefill: fine
  EXPECT_EQ(verify(n, opts).count(LintCode::ConfigDetCapacity), 0U);
}

TEST(Verify, DetCapacityWithNothingToChargeIt) {
  VerifyOptions opts;
  opts.det_capacity = 4;
  const VerifyReport report = verify(mkbox("a", "(x) -> (y)"), opts);
  ASSERT_EQ(report.count(LintCode::ConfigDetUnused), 1U) << report.to_string();
  EXPECT_EQ(find(report, LintCode::ConfigDetUnused)->path, "net");
  // A det combinator in the topology legitimises the cap.
  const Net det = star_det(
      mkbox("step", "(x) -> (x) | (x, <done>)"), "{<done>}");
  EXPECT_EQ(verify(det, opts).count(LintCode::ConfigDetUnused), 0U);
}

TEST(Verify, OutputCreditBelowGuaranteedFanout) {
  // Three chained 2-output filters: one injected record is guaranteed to
  // produce 8 outputs.
  const Net n = filter("{x} -> {x}; {x}") >> filter("{x} -> {x}; {x}") >>
                filter("{x} -> {x}; {x}");
  VerifyOptions opts;
  opts.seed = MultiType({RecordType::of({"x"})});
  opts.output_capacity = 4;
  const VerifyReport report = verify(n, opts);
  ASSERT_EQ(report.count(LintCode::ConfigOutputCredit), 1U)
      << report.to_string();
  const LintDiagnostic* d = find(report, LintCode::ConfigOutputCredit);
  EXPECT_EQ(d->severity, LintSeverity::Warning);
  EXPECT_NE(d->message.find("below the 8 outputs"), std::string::npos);

  opts.output_capacity = 8;
  EXPECT_EQ(verify(n, opts).count(LintCode::ConfigOutputCredit), 0U);

  // Boxes are opaque (guaranteed fan-out 0): no claim possible.
  VerifyOptions box_opts;
  box_opts.output_capacity = 1;
  EXPECT_EQ(verify(mkbox("a", "(x) -> (y)") >> n, box_opts)
                .count(LintCode::ConfigOutputCredit),
            0U);
}

TEST(Verify, InboxCapacityBelowFilterBurst) {
  const Net n = filter("{x} -> {x}; {x}; {x}");
  VerifyOptions opts;
  opts.seed = MultiType({RecordType::of({"x"})});
  opts.inbox_capacity = 2;
  const VerifyReport report = verify(n, opts);
  ASSERT_EQ(report.count(LintCode::ConfigInboxCapacity), 1U)
      << report.to_string();
  const LintDiagnostic* d = find(report, LintCode::ConfigInboxCapacity);
  EXPECT_EQ(d->severity, LintSeverity::Warning);
  EXPECT_EQ(d->path, "net/filter");

  opts.inbox_capacity = 3;
  EXPECT_EQ(verify(n, opts).count(LintCode::ConfigInboxCapacity), 0U);
}

// ------------------------------------- zero false positives on shipped nets

TEST(Verify, ShippedExampleTopologiesAreClean) {
  const struct {
    const char* name;
    Net net;
  } cases[] = {
      {"fig1", sudoku::fig1_net()},
      {"fig2", sudoku::fig2_net()},
      {"fig3", sudoku::fig3_net()},
      {"fig2_propagated", sudoku::fig2_propagated_net()},
  };
  for (const auto& c : cases) {
    const VerifyReport report = verify(c.net);
    EXPECT_TRUE(report.empty())
        << c.name << " should lint clean:\n" << report.to_string();
  }
}

// --------------------------------------------------------- Network wiring

TEST(Verify, StrictModeThrowsOnWarnings) {
  Options opts;
  opts.verify = VerifyMode::Strict;
  try {
    Network net(dead_branch_net(), opts);
    FAIL() << "strict mode must reject the dead branch";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.report().count(LintCode::DeadBranch), 1U);
    EXPECT_NE(std::string(e.what()).find("dead-branch"), std::string::npos);
  }
}

TEST(Verify, WarnAndOffModesConstruct) {
  for (const VerifyMode mode : {VerifyMode::Warn, VerifyMode::Off}) {
    Options opts;
    opts.verify = mode;
    Network net(dead_branch_net(), opts);
    net.input().close();
    net.wait();
  }
}

TEST(Verify, InferenceStillRejectsBrokenTopologiesWithVerifyOff) {
  // Options::verify is independent of the fail-fast inference: a topology
  // `infer` rejects never constructs, whatever the verify mode says.
  Options opts;
  opts.verify = VerifyMode::Off;
  const Net n = mkbox("a", "(x) -> (y)") >> mkbox("b", "(q) -> (z)");
  EXPECT_THROW(Network(n, opts), TypeCheckError);
}

// --------------------------------------------- static/dynamic agreement

TEST(Verify, TiedForMatchesDynamicRouting) {
  // The router's compile-time twin: tied_for over the branch input types
  // must produce the argmax set the runtime routes from. {x,a,b} → wide
  // only; {x,a} → narrow only; {x} → neither (empty set).
  const std::vector<MultiType> inputs = {
      MultiType({RecordType::of({"x", "a", "b"})}),
      MultiType({RecordType::of({"x", "a"})}),
  };
  using detail::ParallelRouter;
  const auto tied_wide =
      ParallelRouter::tied_for(inputs, RecordType::of({"x", "a", "b"}));
  ASSERT_EQ(tied_wide.size(), 1U);
  EXPECT_EQ(tied_wide[0], 0U);
  const auto tied_narrow =
      ParallelRouter::tied_for(inputs, RecordType::of({"x", "a"}));
  ASSERT_EQ(tied_narrow.size(), 1U);
  EXPECT_EQ(tied_narrow[0], 1U);
  EXPECT_TRUE(ParallelRouter::tied_for(inputs, RecordType::of({"x"})).empty());
  // Ties collect every best branch.
  const std::vector<MultiType> same = {
      MultiType({RecordType::of({"x"})}),
      MultiType({RecordType::of({"x"})}),
  };
  const auto both = ParallelRouter::tied_for(same, RecordType::of({"x"}));
  EXPECT_EQ(both.size(), 2U);
}

TEST(Verify, MatchScoreTypeAgreesWithRecordOverload) {
  // MultiType::match_score(RecordType) is the single scoring primitive
  // shared by check.cpp, verify.cpp and the runtime router; it must agree
  // with the record overload for records of exactly that type.
  const MultiType mt({RecordType::of({"x", "a"}), RecordType::of({"x"}, {"t"})});
  Record r;
  r.set_field("x", make_value(1));
  r.set_field("a", make_value(2));
  EXPECT_EQ(mt.match_score(RecordType::of({"x", "a"})), mt.match_score(r));
  Record r2;
  r2.set_field("x", make_value(1));
  r2.set_tag("t", 0);
  EXPECT_EQ(mt.match_score(RecordType::of({"x"}, {"t"})), mt.match_score(r2));
  Record r3;
  r3.set_field("q", make_value(1));
  EXPECT_EQ(mt.match_score(RecordType::of({"q"})), mt.match_score(r3));
  EXPECT_EQ(mt.match_score(RecordType::of({"q"})), -1);
}

// -------------------------------------------------------------- DOT overlay

TEST(Verify, DotOverlayPaintsDiagnosedNodes) {
  const Net n = dead_branch_net();
  const VerifyReport report = verify(n);
  const std::string plain = to_dot(n);
  EXPECT_EQ(plain.find("fillcolor"), std::string::npos);
  const std::string overlay = to_dot(n, report);
  // The dead `narrow` branch is painted in the warning colour; the live
  // nodes are not painted.
  EXPECT_NE(overlay.find("box narrow"), std::string::npos);
  EXPECT_NE(overlay.find("fillcolor=\"#ffd27f\""), std::string::npos);
  EXPECT_EQ(overlay.find("fillcolor=\"#ff9d9d\""), std::string::npos);
  const auto painted = overlay.find("fillcolor=\"#ffd27f\"");
  const auto line_start = overlay.rfind('\n', painted);
  const std::string line = overlay.substr(
      line_start + 1, overlay.find('\n', painted) - line_start - 1);
  EXPECT_NE(line.find("narrow"), std::string::npos)
      << "warning colour must be on the narrow node: " << line;
}

TEST(Verify, DotOverlayPaintsErrorsRed) {
  const Net n = star(mkbox("loop", "(x) -> (x)"), "{<done>}");
  const std::string overlay = to_dot(n, verify(n));
  EXPECT_NE(overlay.find("fillcolor=\"#ff9d9d\""), std::string::npos);
}

TEST(Verify, DotEscapesLabelMetacharacters) {
  // Box names and signature text must not break the DOT quoting.
  const Net n = mkbox("we\"ird\\name", "(x) -> (y)");
  const std::string dot = to_dot(n);
  EXPECT_EQ(dot.find("we\"ird"), std::string::npos) << "quote must be escaped";
  EXPECT_NE(dot.find("we\\\"ird\\\\name"), std::string::npos);
  // Multi-line labels use the escaped \n form, never a raw newline inside
  // a quoted string.
  size_t quotes = 0;
  bool in_string = false;
  for (size_t i = 0; i < dot.size(); ++i) {
    if (dot[i] == '"' && (i == 0 || dot[i - 1] != '\\')) {
      ++quotes;
      in_string = !in_string;
    } else if (dot[i] == '\n') {
      EXPECT_FALSE(in_string) << "raw newline inside a quoted label";
    }
  }
  EXPECT_EQ(quotes % 2, 0U);
}

/// \file driver.cpp
/// The benchmark driver: runs one workload for a given time and prints its
/// metrics as one JSON object on the last line of standard output.
///
///   perfbench_driver --workload <fig2_stream|fig2_fresh_net|stencil_sweep>
///                    --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
///
/// `--trace 0` measures the end-to-end metrics. `--trace 1` measures the
/// per-layer metrics instead: an untraced window, then a traced window over
/// an instrumented copy of the network, then the standalone probes; the
/// spans go to the --trace-out file as Chrome trace-event JSON. See
/// README.md for the workloads and what each metric means.

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "probes.hpp"
#include "runtime/executor.hpp"
#include "sacpp/context.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Executor pool size, fixed so that the pool plus the driving thread fit
/// the 4-core reference host whatever the hardware reports.
constexpr unsigned kPool = 3;
/// Untimed passes over the job set before every timed window.
constexpr int kWarmupPasses = 2;
/// Puzzles per set (one pass of the fig2 workloads).
constexpr int kPuzzles = 180;
/// Puzzles in flight at once on fig2_stream.
constexpr unsigned kStreamInFlight = 2;
/// Stencil instances per set, grid side and Jacobi steps per instance.
constexpr int kInstances = 8;
constexpr std::int64_t kSide = 512;
constexpr int kSteps = 10;
/// Stencil instances in flight at once.
constexpr unsigned kStencilInFlight = 2;
/// The trace run splits --seconds between its windows (the probes take
/// about a second of their own).
constexpr double kUntracedShare = 0.3;
constexpr double kTracedShare = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0') {
        return std::nullopt;
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") {
        return std::nullopt;
      }
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return std::nullopt;
    }
  }
  if ((argc - 1) % 2 != 0 || !have_seed || !(a.seconds > 0 && a.seconds <= 600) ||
      (a.workload != "fig2_stream" && a.workload != "fig2_fresh_net" &&
       a.workload != "stencil_sweep")) {
    return std::nullopt;
  }
  return a;
}

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss is not used: on Linux it keeps the high-water mark of the
/// parent's image from before exec, which hides the benchmark's own.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) {
    s += x;
  }
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const Metrics& metrics) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
    << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    o << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": " << v
      << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t t_main = now_ns();
  const auto args = parse(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench_driver --workload <fig2_stream|fig2_fresh_net|"
                 "stencil_sweep> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n";
    return 2;
  }
  // The pool size is read once, when the pool first starts.
  const std::string pool = std::to_string(kPool);
  setenv("SNETSAC_THREADS", pool.c_str(), 1);
  setenv("SAC_THREADS", pool.c_str(), 1);
  setenv("SNET_WORKERS", pool.c_str(), 1);

  // Inputs and their reference results; not part of the set-up time.
  const std::int64_t g0 = now_ns();
  const bool fig2 = args->workload != "stencil_sweep";
  const bool fresh = args->workload == "fig2_fresh_net";
  // Trace runs probe every layer, so they make both kinds of input.
  const SudokuInputs sudoku_in =
      make_sudoku_inputs(args->seed, fig2 ? kPuzzles : (args->trace ? 40 : 0));
  const StencilInputs stencil_in = make_stencil_inputs(
      args->seed, fig2 ? (args->trace ? 1 : 0) : kInstances, kSide, fig2 ? 0 : kSteps);
  const JobSet jobs = fig2 ? fig2_jobs(sudoku_in) : stencil_jobs(stencil_in);
  const double gen_s = static_cast<double>(now_ns() - g0) / 1e9;

  const Mode mode = fresh ? Mode::Fresh : Mode::Stream;
  const unsigned in_flight = fig2 ? kStreamInFlight : kStencilInFlight;

  auto& exec = snetsac::runtime::Executor::global();
  sac::default_context().threads = kPool;
  if (exec.size() != kPool) {
    std::cerr << "executor pool has " << exec.size() << " threads, expected " << kPool << "\n";
    return 1;
  }

  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const auto account = [&](const Window& w, const char* what) {
    attempted += w.jobs;
    failed += w.failed;
    for (const auto& e : w.errors) {
      std::cerr << what << ": " << e << "\n";
    }
  };

  Window warm;
  Window untraced;
  double setup_s = 0;
  {
    Runner runner(jobs, mode, in_flight, kPool, nullptr);
    runner.run(0, kWarmupPasses, warm);
    setup_s = static_cast<double>(now_ns() - t_main) / 1e9 - gen_s;
    runner.run(args->trace ? kUntracedShare * args->seconds : args->seconds, 1, untraced);
  }
  account(warm, "warm-up");
  account(untraced, "timed");
  const double jobs_per_s = quantile(untraced.pass_jobs_per_s, 0.5);

  Metrics metrics;
  if (!args->trace) {
    metrics.push_back({"jobs_per_s", jobs_per_s, "jobs/s"});
    metrics.push_back({"job_latency_p50_ms", quantile(untraced.latency_ms, 0.5), "ms"});
    metrics.push_back({"job_latency_p90_ms", quantile(untraced.latency_ms, 0.9), "ms"});
    metrics.push_back({"cpu_ms_per_job", quantile(untraced.pass_cpu_ms_per_job, 0.5), "ms"});
    metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    metrics.push_back({"setup_s", setup_s, "s"});
    print_result(correct, attempted, failed, metrics);
    return 0;
  }

  // ---- traced run: the same workload over an instrumented network.
  Tracing tr;
  Window traced;
  {
    Runner runner(jobs, mode, in_flight, kPool, &tr);
    Window traced_warm;
    runner.run(0, 1, traced_warm);
    account(traced_warm, "traced warm-up");
    const std::vector<double> construct = tr.construct_us;
    tr.reset_window();
    if (mode == Mode::Stream) {
      tr.construct_us = construct;  // the one long-lived network
    }
    runner.run(kTracedShare * args->seconds, 1, traced);
    account(traced, "traced");
    runner.teardown();
  }
  const double n = static_cast<double>(traced.jobs);
  const std::uint64_t calls = tr.box.calls.load();
  const double box_self_s = static_cast<double>(tr.box.self_ns.load()) / 1e9;

  // Cross-checks that can fail: box calls counted three ways, and box
  // self-time bounded by the process CPU time of the same window.
  if (calls != tr.box_deliveries.load() || calls != tr.stats_box_records) {
    correct = false;
    std::cerr << "cross-check failed: box calls " << calls << " (wrapped fn), "
              << tr.box_deliveries.load() << " (trace deliveries), " << tr.stats_box_records
              << " (NetworkStats)\n";
  }
  if (box_self_s > traced.cpu_s) {
    correct = false;
    std::cerr << "cross-check failed: box self-time " << box_self_s
              << " s exceeds process CPU time " << traced.cpu_s << " s\n";
  }

  const double traced_jobs_per_s = quantile(traced.pass_jobs_per_s, 0.5);
  const double mean_latency_ms = mean(traced.latency_ms);
  const double construct_ms = mode == Mode::Fresh ? mean(tr.construct_us) / 1e3 : 0.0;
  const double box_ms_per_job = ratio(box_self_s * 1e3, n);
  metrics.push_back({"box.self_ms_per_job", box_ms_per_job, "ms"});
  metrics.push_back({"box.calls_per_job", ratio(static_cast<double>(calls), n), "count"});
  metrics.push_back({"snet.construct_us", quantile(tr.construct_us, 0.5), "us"});
  metrics.push_back({"snet.teardown_us", quantile(tr.teardown_us, 0.5), "us"});
  metrics.push_back({"snet.entities_per_job",
                     ratio(static_cast<double>(tr.entities), n), "count"});
  metrics.push_back({"snet.deliveries_per_job",
                     ratio(static_cast<double>(tr.deliveries.load()), n), "count"});
  metrics.push_back({"snet.first_hop_us", quantile(tr.first_hop_us, 0.5), "us"});
  metrics.push_back({"snet.quanta_per_job", ratio(static_cast<double>(tr.quanta), n), "count"});
  metrics.push_back({"snet.records_per_quantum",
                     ratio(static_cast<double>(tr.stats_records_in),
                           static_cast<double>(tr.quanta)),
                     "count"});
  metrics.push_back({"snet.steals_per_job", ratio(static_cast<double>(tr.steals), n), "count"});
  metrics.push_back({"snet.coord_cpu_us_per_box_call",
                     ratio((traced.cpu_s - box_self_s) * 1e6, static_cast<double>(calls)),
                     "us"});
  metrics.push_back({"snet.wall_overhead_ms_per_job",
                     mean_latency_ms - construct_ms - box_ms_per_job, "ms"});
  metrics.push_back({"trace.overhead", ratio(traced_jobs_per_s, jobs_per_s), "ratio"});
  std::cerr << "jobs/s untraced " << jobs_per_s << ", traced " << traced_jobs_per_s << "\n";

  const std::string probe_error = run_probes(
      sudoku_in.puzzles, stencil_in.initial.front(), metrics);
  if (!probe_error.empty()) {
    correct = false;
    std::cerr << "probe check failed: " << probe_error << "\n";
  }
  for (const Metric& m : metrics) {
    if (m.name == "sudoku.seq_solve_ms" && fresh) {
      // The paper's comparison, kept out of the metrics (a faster
      // with-loop lowers it while improving the program).
      std::cerr << "fig2_vs_sequential: " << ratio(m.value, mean_latency_ms)
                << " (sequential solve " << m.value << " ms over mean fig2 latency "
                << mean_latency_ms << " ms, traced)\n";
    }
  }
  if (!args->trace_out.empty()) {
    if (!tr.log.write_chrome_json(args->trace_out)) {
      std::cerr << "cannot write " << args->trace_out << "\n";
      return 1;
    }
    std::cerr << "trace: " << args->trace_out << " (" << tr.log.dropped()
              << " spans over the per-thread cap not kept)\n";
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

#ifndef SNETSAC_PERFBENCH_WORKLOADS_HPP
#define SNETSAC_PERFBENCH_WORKLOADS_HPP

/// \file workloads.hpp
/// The closed-loop job runner behind every workload, and the workloads'
/// inputs and output checks.
///
/// A job is one record injected into a network plus the one result it must
/// produce. The runner drives jobs from the calling thread in whole passes
/// over a fixed job set, either through one long-lived network with a few
/// jobs in flight, each in its own session (Mode::Stream), or one job at a
/// time through a network constructed for it and torn down after it
/// (Mode::Fresh). Outputs are checked after each pass, outside the timed
/// window.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "sacpp/array.hpp"
#include "sacpp/context.hpp"
#include "snet/network.hpp"
#include "sudoku/board.hpp"
#include "trace.hpp"

namespace perfbench {

using Grid = sac::Array<double>;

/// Jobs and the check of their results. `check` gets the job index, the
/// first output record and the number of outputs the job produced; it
/// returns an empty string when the result is right, else what is wrong.
struct JobSet {
  snet::Net topology;
  std::vector<snet::Record> inputs;
  std::function<std::string(std::size_t, const snet::Record&, int)> check;
};

enum class Mode { Stream, Fresh };

/// What the traced run records; shared by the instrumented topology, the
/// Options::trace hook and the runner.
struct Tracing {
  BoxCounters box;
  SpanLog log;
  std::atomic<std::uint64_t> deliveries{0};
  std::atomic<std::uint64_t> box_deliveries{0};
  /// Totals over the traced window, taken from NetworkStats.
  std::uint64_t stats_box_records = 0;
  std::uint64_t stats_records_in = 0;
  std::uint64_t quanta = 0;
  std::uint64_t steals = 0;
  std::uint64_t entities = 0;
  std::vector<double> first_hop_us;
  std::vector<double> construct_us;
  std::vector<double> teardown_us;

  /// Zeroes every window total (call at a quiescent point).
  void reset_window();
};

/// One timed window: whole passes, with the output checks excluded.
struct Window {
  /// Process CPU seconds over the timed passes.
  double cpu_s = 0;
  std::int64_t jobs = 0;
  std::int64_t failed = 0;
  std::vector<double> latency_ms;
  /// Per pass: jobs per second and CPU milliseconds per job. Every pass
  /// runs the same jobs, so their medians are robust to a disturbance
  /// that hits a few passes.
  std::vector<double> pass_jobs_per_s;
  std::vector<double> pass_cpu_ms_per_job;
  /// Descriptions of the first few failed jobs.
  std::vector<std::string> errors;
};

class Runner {
 public:
  /// Builds the long-lived network (Mode::Stream). With \p tracing, the
  /// topology's boxes are timed and every delivery is observed.
  Runner(JobSet jobs, Mode mode, unsigned in_flight, unsigned workers,
         Tracing* tracing);
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Runs whole passes over the job set, timing them into \p w, until at
  /// least \p seconds of passes have been timed (at least \p min_passes).
  void run(double seconds, int min_passes, Window& w);

  /// Destroys the long-lived network now (recorded as a teardown span when
  /// traced). Idempotent.
  void teardown();

 private:
  struct Slot;
  void stream_pass(Slot* slots, std::size_t n);
  void fresh_pass(Slot* slots, std::size_t n);
  snet::Options options(Slot* fresh_slot);
  void note_stats(const snet::NetworkStats& s, int sign);

  JobSet jobs_;
  Mode mode_;
  unsigned in_flight_;
  unsigned workers_;
  Tracing* tracing_;
  snet::Net topology_;
  std::unique_ptr<snet::Network> net_;
  /// Session id of the first job of the current stream pass, so the trace
  /// hook can map a record's session stamp to its job slot.
  std::atomic<std::uint32_t> base_session_{0};
  std::atomic<Slot*> slots_base_{nullptr};
  std::atomic<std::size_t> slots_n_{0};
  std::int64_t next_job_id_ = 0;
  /// Stream-mode completions, signalled from the output callbacks.
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::vector<std::size_t> done_;
};

// ------------------------------------------------------------- workloads

struct SudokuInputs {
  std::vector<Puzzle> puzzles;
  /// sudoku::count_solutions(p, 2) per puzzle, computed with the inputs.
  std::vector<int> program_counts;
};
sudoku::BoardArray to_board(const Cells& c);
/// Seeded puzzles (see README.md for the clue band and the tree cap).
SudokuInputs make_sudoku_inputs(std::uint64_t seed, int count);
/// Fig. 2 jobs: one puzzle each, checked against the oracle.
JobSet fig2_jobs(const SudokuInputs& in);

struct StencilInputs {
  std::int64_t side = 0;
  int steps = 0;
  std::vector<Grid> initial;
  std::vector<std::vector<double>> reference;  ///< after `steps` steps
  std::vector<double> lo;                       ///< initial min per instance
  std::vector<double> hi;                       ///< initial max per instance
};
/// Seeded stencil instances with their plain-loop reference results.
StencilInputs make_stencil_inputs(std::uint64_t seed, int instances, std::int64_t side,
                                  int steps);
/// The stencil's Jacobi step, the with-loop the jacobiStep box runs (with
/// the default context).
Grid jacobi_step(const Grid& g, double alpha, const sac::Context& ctx);
/// Relaxation weight of instance \p id (the swept parameter).
double stencil_alpha(std::int64_t id);
/// `star(split(jacobiStep, "id"), {<iter>} if <iter> >= steps)` jobs.
JobSet stencil_jobs(const StencilInputs& in);

}  // namespace perfbench

#endif

#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "runtime/executor.hpp"
#include "runtime/mpsc_queue.hpp"
#include "runtime/parallel_for.hpp"
#include "sacpp/context.hpp"
#include "sudoku/nets.hpp"
#include "sudoku/rules.hpp"
#include "sudoku/solver.hpp"

namespace perfbench {

using snetsac::runtime::Executor;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

/// Runs \p f as a task on the pool and waits for it: the probes of code
/// that runs inside box quanta measure it on a worker, as the workloads do.
template <class F>
void on_worker(F&& f) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Executor::global().submit([&] {
    f();
    const std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
}

double elapsed_ns(std::int64_t t0) { return static_cast<double>(now_ns() - t0); }

/// Submit from a non-worker thread onto a parked pool, up to task start.
double wake_us() {
  Executor& ex = Executor::global();
  std::vector<double> samples;
  for (int r = 0; r < 150; ++r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::atomic<std::int64_t> started{0};
    const std::int64_t t0 = now_ns();
    ex.submit([&started] { started.store(now_ns(), std::memory_order_release); });
    while (started.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    samples.push_back(static_cast<double>(started.load() - t0) / 1e3);
  }
  return quantile(samples, 0.5);
}

/// Submit and run of an empty task from a worker.
double task_ns() {
  Executor& ex = Executor::global();
  constexpr int kTasks = 20000;
  std::vector<double> samples;
  on_worker([&] {
    for (int r = 0; r < 7; ++r) {
      std::atomic<int> count{0};
      snetsac::runtime::Mutex mu;
      snetsac::runtime::CondVar cv;
      // Set under `mu` by the last task, so the join cannot return (and
      // destroy mu and cv) while that task is still notifying.
      bool finished = false;
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kTasks; ++i) {
        ex.submit([&] {
          if (count.fetch_add(1, std::memory_order_acq_rel) + 1 == kTasks) {
            const snetsac::runtime::MutexLock lock(mu);
            finished = true;
            cv.notify_all();
          }
        });
      }
      ex.help_until(mu, cv, [&] { return finished; });
      samples.push_back(elapsed_ns(t0) / kTasks);
    }
  });
  return quantile(samples, 0.5);
}

/// MpscQueue push plus drain_into, per record, on the workload's records.
double mpsc_ns_per_record(const snet::Record& rec) {
  constexpr std::size_t kBatch = 64;
  constexpr int kRounds = 4000;
  snetsac::runtime::MpscQueue<snet::Record> q;
  std::vector<snet::Record> src(kBatch, rec);
  std::vector<snet::Record> dst;
  std::vector<double> samples;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    for (int b = 0; b < kRounds; ++b) {
      for (auto& x : src) {
        q.push(std::move(x));
      }
      dst.clear();
      q.drain_into(dst, kBatch);
      src.swap(dst);
    }
    samples.push_back(elapsed_ns(t0) / (kRounds * static_cast<double>(kBatch)));
  }
  return quantile(samples, 0.5);
}

/// One parallel_for_chunks join over the pool, from a worker.
double fork_join_us() {
  Executor& ex = Executor::global();
  const auto chunks = static_cast<std::int64_t>(ex.size());
  std::vector<double> samples;
  on_worker([&] {
    for (int r = 0; r < 7; ++r) {
      constexpr int kJoins = 500;
      std::atomic<std::int64_t> sink{0};
      const std::int64_t t0 = now_ns();
      for (int j = 0; j < kJoins; ++j) {
        snetsac::runtime::parallel_for_chunks(
            ex, 0, chunks, 1, [&sink](std::int64_t lo, std::int64_t hi) {
              sink.fetch_add(hi - lo, std::memory_order_relaxed);
            });
      }
      samples.push_back(elapsed_ns(t0) / kJoins / 1e3);
    }
  });
  return quantile(samples, 0.5);
}

}  // namespace

std::string run_probes(const std::vector<Puzzle>& puzzles, const Grid& grid,
                       Metrics& out) {
  std::string error;
  out.push_back({"runtime.wake_us", wake_us(), "us"});
  out.push_back({"runtime.task_ns", task_ns(), "ns"});
  out.push_back({"runtime.mpsc_ns_per_record",
                 mpsc_ns_per_record(sudoku::board_record(to_board(puzzles.front().cells))),
                 "ns"});
  out.push_back({"runtime.fork_join_us", fork_join_us(), "us"});

  // The Jacobi with-loop step, one-thread context and the pool context.
  // `copy_fraction` sets the step's computed bytes per second (one grid
  // read, one written) against a plain copy of the same bytes on the same
  // thread; at 512x512 both grids fit in cache, so it is an in-cache rate.
  const double cells = static_cast<double>(grid.element_count());
  double step_1t_ns = 0;
  double step_pool_ns = 0;
  double copy_ns = 0;
  on_worker([&] {
    sac::Context one = sac::default_context();
    one.threads = 1;
    const sac::Context& pool = sac::default_context();
    const double alpha = stencil_alpha(0);
    std::vector<double> t1;
    std::vector<double> tp;
    std::vector<double> tc;
    const auto& src = grid.data();
    std::vector<double> a(src.begin(), src.end());
    std::vector<double> b(a.size());
    for (int r = 0; r < 9; ++r) {
      std::int64_t t0 = now_ns();
      Grid g1 = jacobi_step(grid, alpha, one);
      t1.push_back(elapsed_ns(t0));
      t0 = now_ns();
      Grid gp = jacobi_step(grid, alpha, pool);
      tp.push_back(elapsed_ns(t0));
      if (g1 != gp) {
        error = "the Jacobi step differs between the one-thread and the pool context";
      }
      t0 = now_ns();
      std::copy(a.begin(), a.end(), b.begin());
      tc.push_back(elapsed_ns(t0));
      a.swap(b);
    }
    step_1t_ns = quantile(t1, 0.5);
    step_pool_ns = quantile(tp, 0.5);
    copy_ns = quantile(tc, 0.5);
  });
  out.push_back({"sacpp.stencil_ns_per_cell_1t", step_1t_ns / cells, "ns"});
  out.push_back({"sacpp.stencil_ns_per_cell", step_pool_ns / cells, "ns"});
  out.push_back({"sacpp.stencil_copy_fraction", copy_ns / step_1t_ns, "ratio_in_cache"});

  // The paper's addNumber on every puzzle's first free cell, with that
  // cell's solution digit; then the sequential solver on the same puzzles.
  std::vector<std::pair<sudoku::BoardArray, sudoku::OptsArray>> starts;
  std::vector<std::array<int, 3>> moves;
  for (const Puzzle& p : puzzles) {
    starts.push_back(sudoku::compute_opts(to_board(p.cells)));
    const auto free_cell = static_cast<int>(
        std::find(p.cells.begin(), p.cells.end(), 0) - p.cells.begin());
    moves.push_back({free_cell / 9, free_cell % 9, p.solution[static_cast<std::size_t>(free_cell)]});
  }
  constexpr int kReps = 20;
  std::int64_t t0 = now_ns();
  for (int r = 0; r < kReps; ++r) {
    for (std::size_t i = 0; i < starts.size(); ++i) {
      auto res = sudoku::add_number(moves[i][0], moves[i][1], moves[i][2],
                                    starts[i].first, starts[i].second);
      if (res.first[{moves[i][0], moves[i][1]}] != moves[i][2]) {
        error = "add_number did not place its number";
      }
    }
  }
  out.push_back({"sudoku.add_number_us",
                 elapsed_ns(t0) / 1e3 / (kReps * static_cast<double>(starts.size())), "us"});

  t0 = now_ns();
  for (const Puzzle& p : puzzles) {
    const auto res = sudoku::solve_board(to_board(p.cells));
    if (!res.completed || res.board != to_board(p.solution)) {
      error = "the sequential solver's result differs from the oracle's solution";
    }
  }
  out.push_back({"sudoku.seq_solve_ms",
                 elapsed_ns(t0) / 1e6 / static_cast<double>(puzzles.size()), "ms"});
  return error;
}

}  // namespace perfbench

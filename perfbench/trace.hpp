#ifndef SNETSAC_PERFBENCH_TRACE_HPP
#define SNETSAC_PERFBENCH_TRACE_HPP

/// \file trace.hpp
/// Tracing from outside the library: spans kept in memory per thread and
/// written once at the end as Chrome trace-event JSON, box bodies wrapped
/// in a timer by rebuilding the public `Net` tree, and the layer counters
/// the traced run reports.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "snet/net.hpp"

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in the process.
std::int64_t now_ns();

/// Process user+system CPU time (getrusage) in seconds.
double process_cpu_s();

struct Span {
  const char* name;  ///< static string
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t job;  ///< -1 when the span cannot be tied to one job
};

/// Collects spans from any thread without a shared lock on the hot path:
/// each thread appends to its own buffer, registered once.
class SpanLog {
 public:
  /// Spans beyond this many per thread are counted but not kept.
  static constexpr std::size_t kPerThreadCap = 25000;

  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t job);
  /// Writes every kept span as Chrome trace-event JSON ("X" events, one
  /// track per thread); returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;
  std::uint64_t dropped() const { return dropped_.load(); }

 private:
  struct Buffer {
    int tid = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  /// Distinguishes logs in the per-thread buffer cache.
  const std::uint64_t id_ = next_id_.fetch_add(1);
  static inline std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Box-body counters of the traced run.
struct BoxCounters {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::int64_t> self_ns{0};
  /// The job box spans are attributed to (one-job-at-a-time workloads);
  /// -1 when several jobs are in flight.
  std::atomic<std::int64_t> current_job{-1};
};

/// Rebuilds \p net with every box's function wrapped in a timer that
/// counts into \p counters and logs a span per call into \p log. The box
/// bodies themselves run unchanged.
snet::Net instrument(const snet::Net& net, BoxCounters& counters, SpanLog& log);

}  // namespace perfbench

#endif

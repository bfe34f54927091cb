#include "trace.hpp"

#include <sys/resource.h>

#include <fstream>

namespace perfbench {

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

SpanLog::Buffer& SpanLog::local() {
  thread_local std::uint64_t owner = 0;
  thread_local Buffer* buf = nullptr;
  if (owner != id_) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->tid = static_cast<int>(buffers_.size());
    buffers_.back()->spans.reserve(4096);
    buf = buffers_.back().get();
    owner = id_;
  }
  return *buf;
}

void SpanLog::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                  std::int64_t job) {
  Buffer& b = local();
  if (b.spans.size() >= kPerThreadCap) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b.spans.push_back(Span{name, start_ns, end_ns, job});
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      f << (first ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << b->tid
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      if (s.job >= 0) {
        f << ",\"args\":{\"job\":" << s.job << "}";
      }
      f << "}";
      first = false;
    }
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

snet::Net instrument(const snet::Net& net, BoxCounters& counters, SpanLog& log) {
  if (!net) {
    return net;
  }
  auto copy = std::make_shared<snet::NetNode>(*net);
  if (copy->kind == snet::NetNode::Kind::Box) {
    copy->fn = [inner = net->fn, &counters, &log](const snet::BoxInput& in,
                                                  snet::BoxOutput& out) {
      const std::int64_t t0 = now_ns();
      inner(in, out);
      const std::int64_t t1 = now_ns();
      counters.calls.fetch_add(1, std::memory_order_relaxed);
      counters.self_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
      log.add("box", t0, t1, counters.current_job.load(std::memory_order_relaxed));
    };
  }
  copy->left = instrument(net->left, counters, log);
  copy->right = instrument(net->right, counters, log);
  copy->child = instrument(net->child, counters, log);
  return copy;
}

}  // namespace perfbench

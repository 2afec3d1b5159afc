#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

/// Owns every thread's buffer so spans outlive the threads that made them.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Buffer>> buffers;
};

Registry& registry() {
  static Registry instance;
  return instance;
}

Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.buffers.push_back(std::make_unique<Buffer>());
    buffer = reg.buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(reg.buffers.size());
    buffer->spans.reserve(1024);
  }
  return *buffer;
}

thread_local std::vector<std::uint32_t> t_open;

struct Interval {
  std::int64_t start;
  std::int64_t end;
};

/// Length of the union of `intervals` clipped to [lo, hi).
std::int64_t union_length(std::vector<Interval> intervals, std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t total = 0;
  std::int64_t cursor = lo;
  for (const Interval& interval : intervals) {
    const std::int64_t start = std::max(interval.start, cursor);
    const std::int64_t end = std::min(interval.end, hi);
    if (end > start) {
      total += end - start;
      cursor = end;
    }
  }
  return total;
}

}  // namespace

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name, std::uint64_t request, std::uint32_t parent) {
  if (!enabled()) return;
  span_.name = name;
  span_.request = request;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent != kInheritParent ? parent : (t_open.empty() ? 0 : t_open.back());
  t_open.push_back(span_.id);
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (span_.id == 0) return;
  span_.end_ns = now_ns();
  t_open.pop_back();
  Buffer& buffer = local_buffer();
  span_.thread = buffer.thread;
  buffer.spans.push_back(span_);
}

std::vector<Span> collect() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<Span> all;
  for (const auto& buffer : reg.buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

void clear() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buffer : reg.buffers) buffer->spans.clear();
}

std::map<std::string, NameSummary> summarize(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::vector<Interval>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back({span.start_ns, span.end_ns});
  }
  std::map<std::string, NameSummary> out;
  for (const Span& span : spans) {
    NameSummary& summary = out[span.name];
    const std::int64_t duration = span.end_ns - span.start_ns;
    std::int64_t covered = 0;
    if (const auto it = children.find(span.id); it != children.end()) {
      covered = union_length(it->second, span.start_ns, span.end_ns);
    }
    ++summary.count;
    summary.total_s += static_cast<double>(duration) * 1e-9;
    summary.self_s += static_cast<double>(duration - covered) * 1e-9;
  }
  return out;
}

double coverage(const std::vector<Span>& spans, std::int64_t window_start,
                std::int64_t window_end) {
  if (window_end <= window_start) return 0;
  std::vector<Interval> top;
  for (const Span& span : spans) {
    if (span.parent == 0) top.push_back({span.start_ns, span.end_ns});
  }
  return static_cast<double>(union_length(std::move(top), window_start, window_end)) /
         static_cast<double>(window_end - window_start);
}

void dump(const std::vector<Span>& spans, const std::string& path) {
  std::printf("  spans in %s (name: count, total s, self s):\n", path.c_str());
  for (const auto& [name, summary] : summarize(spans)) {
    std::printf("    %-32s %8llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(summary.count), summary.total_s,
                summary.self_s);
  }
  std::ofstream out(path, std::ios::trunc);
  for (const Span& span : spans) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << ",\"thread\":" << span.thread << "}\n";
  }
}

}  // namespace perfbench::trace

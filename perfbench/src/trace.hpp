#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

/// One completed span. Spans are recorded by the benchmark's own code
/// around calls into the library's public functions; the library itself
/// is not instrumented.
struct Span {
  const char* name = "";     ///< static string, e.g. "harness.explorer.sweep"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;      ///< unique, 1-based
  std::uint32_t parent = 0;  ///< 0 = top-level
  std::uint64_t request = 0; ///< config index or query id
  std::uint32_t thread = 0;  ///< small per-process thread number
};

/// Recording is off unless enabled; a disabled Scope costs one relaxed load.
void set_enabled(bool on);
bool enabled();

inline constexpr std::uint32_t kInheritParent = ~std::uint32_t{0};

/// RAII span. The parent defaults to the innermost span open on this
/// thread; pass an explicit id for a child that runs on another thread.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t request = 0,
                 std::uint32_t parent = kInheritParent);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// 0 when recording is disabled.
  std::uint32_t id() const { return span_.id; }

 private:
  Span span_;
};

/// Every recorded span of every thread, ordered by start time. Call only
/// while no thread is recording.
std::vector<Span> collect();
void clear();

/// Per-name totals over a span set. A span's self time is its duration
/// minus the part of its interval that its children cover.
struct NameSummary {
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};
std::map<std::string, NameSummary> summarize(const std::vector<Span>& spans);

/// Share of [window_start, window_end) covered by top-level spans.
double coverage(const std::vector<Span>& spans, std::int64_t window_start,
                std::int64_t window_end);

/// Writes the spans to `path`, one JSON object per line, and prints the
/// per-name summary (count, total and self seconds) to stdout.
void dump(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench::trace

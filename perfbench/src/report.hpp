#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

/// The metrics of one benchmark run, in insertion order, plus the failure
/// accounting every workload shares. Serialized as the one-line JSON
/// result the benchmark prints last.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  /// Set (or overwrite) a metric. Non-finite values are refused: a metric
  /// that cannot be measured is a failed check, not a number.
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  double value(const std::string& name) const;

  /// Failure accounting: `attempt(n)` adds operations, `fail(n, why)` marks
  /// some of them failed (an evaluation that threw, a non-kOk answer, a
  /// transport error, an output-check mismatch) and remembers the reason.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n, const std::string& why);
  /// An output check that failed without being tied to one operation.
  void check_failed(const std::string& why);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Share of attempted operations that did not fail.
  double ok_ratio() const;
  bool correct() const { return failed_ == 0 && check_failures_ == 0; }
  const std::vector<std::string>& failure_notes() const { return notes_; }

  /// Human-readable table (one "name value unit" line per metric).
  void print_table(std::ostream& os) const;
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string json() const;

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t check_failures_ = 0;
  std::vector<std::string> notes_;
};

}  // namespace perfbench

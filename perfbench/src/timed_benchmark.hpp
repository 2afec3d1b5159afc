#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/benchmark.hpp"

namespace perfbench {

/// What every TimedBenchmark of one pass accumulates: per-call latency,
/// busy time per benchmark and the summed approximation counters.
/// Baseline runs (technique none) are not configs and are not counted.
class RunLedger {
 public:
  struct Totals {
    std::uint64_t configs = 0;
    std::vector<double> run_ms;                 ///< one entry per run call
    std::map<std::string, double> busy_s;       ///< per benchmark name
    hpac::approx::ExecStats stats;              ///< summed counters
    std::uint64_t iact_invocations = 0;         ///< invocations under iACT specs
    std::size_t host_shards_max = 0;
  };

  void record(const std::string& benchmark, const hpac::pragma::ApproxSpec& spec,
              double seconds, const hpac::approx::ExecStats* stats);
  Totals totals() const;

  /// Start of a traced sweep: the run spans hang under `parent_span` and
  /// carry their config's index in `configs` (spec text, items per thread)
  /// as request id. Call only while no run is in flight.
  void begin_sweep(std::uint32_t parent_span,
                   const std::vector<std::pair<std::string, std::uint64_t>>& configs);
  std::uint32_t parent_span() const { return parent_span_.load(); }
  /// Index of (spec, items per thread) in the current sweep, or 0.
  std::uint64_t request_id(const hpac::pragma::ApproxSpec& spec,
                           std::uint64_t items_per_thread) const;

 private:
  mutable std::mutex mutex_;
  Totals totals_;
  std::atomic<std::uint32_t> parent_span_{0};
  /// Written by begin_sweep before the sweep's workers start; read-only
  /// while runs are in flight.
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> config_index_;
};

/// Forwarding Benchmark decorator: times every `run` call into a shared
/// ledger (and, when tracing, records an "apps.run" span under the
/// ledger's parent span). `fork()` wraps the inner fork, so the Explorer's
/// per-worker copies report into the same ledger.
class TimedBenchmark : public hpac::harness::Benchmark {
 public:
  TimedBenchmark(std::unique_ptr<hpac::harness::Benchmark> inner,
                 std::shared_ptr<RunLedger> ledger);

  std::string name() const override { return inner_->name(); }
  hpac::harness::ErrorMetric error_metric() const override { return inner_->error_metric(); }
  hpac::harness::TimingScope timing_scope() const override { return inner_->timing_scope(); }
  std::uint64_t default_items_per_thread() const override {
    return inner_->default_items_per_thread();
  }
  std::uint32_t threads_per_team() const override { return inner_->threads_per_team(); }
  std::vector<std::uint64_t> memo_items_axis() const override {
    return inner_->memo_items_axis();
  }

  hpac::harness::RunOutput run(const hpac::pragma::ApproxSpec& spec,
                               std::uint64_t items_per_thread,
                               const hpac::sim::DeviceConfig& device) override;

  std::unique_ptr<hpac::harness::Benchmark> fork() const override;

 private:
  std::unique_ptr<hpac::harness::Benchmark> inner_;
  std::shared_ptr<RunLedger> ledger_;
};

}  // namespace perfbench

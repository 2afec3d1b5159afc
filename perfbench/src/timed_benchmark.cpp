#include "timed_benchmark.hpp"

#include <algorithm>
#include <chrono>

#include "trace.hpp"

namespace perfbench {

void RunLedger::record(const std::string& benchmark, const hpac::pragma::ApproxSpec& spec,
                       double seconds, const hpac::approx::ExecStats* stats) {
  if (spec.technique == hpac::pragma::Technique::kNone) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.configs;
  totals_.run_ms.push_back(seconds * 1e3);
  totals_.busy_s[benchmark] += seconds;
  if (stats == nullptr) return;  // the run threw (an infeasible config)
  hpac::approx::ExecStats& sum = totals_.stats;
  sum.region_invocations += stats->region_invocations;
  sum.accurate_items += stats->accurate_items;
  sum.approx_items += stats->approx_items;
  sum.skipped_items += stats->skipped_items;
  sum.iact_hits += stats->iact_hits;
  sum.taf_stable_entries += stats->taf_stable_entries;
  if (spec.technique == hpac::pragma::Technique::kIactMemo) {
    totals_.iact_invocations += stats->region_invocations;
  }
  totals_.host_shards_max = std::max(totals_.host_shards_max, stats->host_shards);
}

void RunLedger::begin_sweep(
    std::uint32_t parent_span,
    const std::vector<std::pair<std::string, std::uint64_t>>& configs) {
  config_index_.clear();
  for (std::size_t i = 0; i < configs.size(); ++i) config_index_.emplace(configs[i], i);
  parent_span_.store(parent_span);
}

std::uint64_t RunLedger::request_id(const hpac::pragma::ApproxSpec& spec,
                                    std::uint64_t items_per_thread) const {
  const auto it = config_index_.find({spec.to_string(), items_per_thread});
  return it == config_index_.end() ? 0 : it->second;
}

RunLedger::Totals RunLedger::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

TimedBenchmark::TimedBenchmark(std::unique_ptr<hpac::harness::Benchmark> inner,
                               std::shared_ptr<RunLedger> ledger)
    : inner_(std::move(inner)), ledger_(std::move(ledger)) {}

hpac::harness::RunOutput TimedBenchmark::run(const hpac::pragma::ApproxSpec& spec,
                                             std::uint64_t items_per_thread,
                                             const hpac::sim::DeviceConfig& device) {
  const std::uint32_t parent = ledger_->parent_span();
  trace::Scope span("apps.run",
                    trace::enabled() ? ledger_->request_id(spec, items_per_thread) : 0,
                    parent != 0 ? parent : trace::kInheritParent);
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  try {
    hpac::harness::RunOutput output = inner_->run(spec, items_per_thread, device);
    ledger_->record(inner_->name(), spec, elapsed(), &output.stats);
    return output;
  } catch (...) {
    ledger_->record(inner_->name(), spec, elapsed(), nullptr);
    throw;
  }
}

std::unique_ptr<hpac::harness::Benchmark> TimedBenchmark::fork() const {
  std::unique_ptr<hpac::harness::Benchmark> inner_fork = inner_->fork();
  if (!inner_fork) return nullptr;
  return std::make_unique<TimedBenchmark>(std::move(inner_fork), ledger_);
}

}  // namespace perfbench

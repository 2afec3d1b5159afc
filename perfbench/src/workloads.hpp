#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config.hpp"
#include "report.hpp"
#include "timed_benchmark.hpp"

namespace perfbench {

/// The devices of the campaign (and so of the journal hpacd serves).
inline const std::vector<std::string> kCampaignDevices{"v100", "mi250x"};

/// Each workload fills `report` with the end-to-end metrics (always) and
/// the per-layer metrics of the layers it runs (trace mode), and accounts
/// attempted/failed operations and output checks. main() adds
/// `ok_ratio`.
void run_explore_iact(const WorkloadConfig& config, Report& report);
void run_campaign_taf_perfo(const WorkloadConfig& config, Report& report);

/// Pass scheduling shared by the workloads. Untraced runs repeat the
/// timed pass until `config.seconds` are spent (at least one pass). A
/// trace run makes two untraced passes, then one traced pass; the ratio of
/// the traced wall to the second untraced wall (the first pass of a
/// process runs cold) is the tracing overhead. Returns false when no
/// further pass should run; sets `traced` for the next one.
bool next_pass(const WorkloadConfig& config, std::size_t passes_done, double elapsed_s,
               bool& traced);

/// Timed-phase samples of a run's passes, reduced to the shared metrics:
/// each is the median over the run's set-ups or untraced passes.
struct PassSamples {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> op_p50_ms;
  std::vector<double> op_p90_ms;

  /// Add one untraced pass: its wall and process CPU time and the latency
  /// of each of its operations.
  void add_pass(double wall, double cpu, const std::vector<double>& op_ms);
};
void report_end_to_end(Report& report, const PassSamples& samples);

/// Sets the `approx.*` counters from what a ledger summed over its runs.
void report_approx_counters(Report& report, const RunLedger::Totals& totals);

/// Sets `peak_rss_mb` to the process's peak resident memory so far, once:
/// called after the first timed pass, so the figure covers the first pass
/// (and, on explore_iact, its set-up) and does not grow with the number of
/// passes that fit in a run.
void note_peak_rss(Report& report);

/// User plus system CPU seconds this process has consumed, all threads.
double process_cpu_s();

/// Seconds since `start` on the steady clock.
double seconds_since(std::int64_t start_ns);

}  // namespace perfbench

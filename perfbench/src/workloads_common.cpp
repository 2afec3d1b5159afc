#include "workloads.hpp"

#include <sys/resource.h>

#include <iostream>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

bool next_pass(const WorkloadConfig& config, std::size_t passes_done, double elapsed_s,
               bool& traced) {
  if (config.trace) {
    traced = passes_done == 2;
    return passes_done < 3;
  }
  traced = false;
  return passes_done == 0 || elapsed_s < config.seconds;
}

void PassSamples::add_pass(double wall, double cpu, const std::vector<double>& op_ms) {
  wall_s.push_back(wall);
  cpu_s.push_back(cpu);
  op_p50_ms.push_back(percentile(op_ms, 50));
  op_p90_ms.push_back(percentile(op_ms, 90));
}

void report_end_to_end(Report& report, const PassSamples& samples) {
  const auto print = [](const char* name, const std::vector<double>& values) {
    std::cout << "  samples " << name << ":";
    for (const double v : values) std::cout << ' ' << v;
    std::cout << '\n';
  };
  print("setup_s", samples.setup_s);
  print("wall_s", samples.wall_s);
  print("cpu_s", samples.cpu_s);
  report.set("setup_s", median(samples.setup_s), "s");
  report.set("wall_s", median(samples.wall_s), "s");
  report.set("cpu_s", median(samples.cpu_s), "s");
  report.set("op_p50_ms", median(samples.op_p50_ms), "ms");
  report.set("op_p90_ms", median(samples.op_p90_ms), "ms");
}

void report_approx_counters(Report& report, const RunLedger::Totals& t) {
  const hpac::approx::ExecStats& s = t.stats;
  report.set("approx.region_invocations", static_cast<double>(s.region_invocations), "count");
  report.set("approx.accurate_items", static_cast<double>(s.accurate_items), "count");
  report.set("approx.approx_items", static_cast<double>(s.approx_items), "count");
  report.set("approx.skipped_items", static_cast<double>(s.skipped_items), "count");
  report.set("approx.iact_hits", static_cast<double>(s.iact_hits), "count");
  report.set("approx.taf_stable_entries", static_cast<double>(s.taf_stable_entries), "count");
  report.set("approx.approx_ratio", s.approx_ratio(), "ratio");
  report.set("approx.iact_hit_ratio",
             t.iact_invocations == 0
                 ? 0.0
                 : static_cast<double>(s.iact_hits) / static_cast<double>(t.iact_invocations),
             "ratio");
  report.set("approx.host_shards_max", static_cast<double>(t.host_shards_max), "count");
}

void note_peak_rss(Report& report) {
  if (report.has("peak_rss_mb")) return;
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  report.set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");  // KiB
}

double process_cpu_s() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(trace::now_ns() - start_ns) * 1e-9;
}

}  // namespace perfbench

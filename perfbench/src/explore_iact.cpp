// explore_iact: the seven `hpac_explore --sweep=iact` sweeps (every app on
// v100, curated iACT specs x the app's items-per-thread axis) through
// Explorer::sweep. Stresses the iACT table scan; runs no TAF, journal or
// service, so it is the no-change control for those layers.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>

#include "apps/registry.hpp"
#include "checks.hpp"
#include "harness/explorer.hpp"
#include "harness/params.hpp"
#include "micro.hpp"
#include "pragma/parser.hpp"
#include "sim/device.hpp"
#include "stats.hpp"
#include "timed_benchmark.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace hpac;

namespace {

/// Names of the registered apps in the order `seed` picks.
std::vector<std::string> seeded_app_order(std::uint64_t seed) {
  const std::vector<std::string> names = apps::benchmark_names();
  std::vector<std::string> order;
  for (const std::size_t i : seeded_permutation(names.size(), seed)) order.push_back(names[i]);
  return order;
}

struct AppSlot {
  std::string name;
  std::unique_ptr<TimedBenchmark> bench;
  std::unique_ptr<harness::Explorer> explorer;
  std::vector<pragma::ApproxSpec> specs;
  std::vector<std::uint64_t> axis;
};

struct Setup {
  std::shared_ptr<RunLedger> ledger = std::make_shared<RunLedger>();
  std::vector<AppSlot> apps;  ///< in the seeded sweep order
  double seconds = 0;
  double make_s = 0;
  double baseline_s = 0;
};

/// App construction plus accurate baselines.
Setup set_up(const std::vector<std::string>& order) {
  Setup setup;
  const std::int64_t start = trace::now_ns();
  const sim::DeviceConfig device = sim::v100();
  for (const std::string& name : order) {
    AppSlot slot;
    slot.name = name;
    {
      trace::Scope span("apps.make_benchmark");
      const std::int64_t t0 = trace::now_ns();
      slot.bench = std::make_unique<TimedBenchmark>(apps::make_benchmark(name), setup.ledger);
      setup.make_s += seconds_since(t0);
    }
    slot.explorer = std::make_unique<harness::Explorer>(*slot.bench, device);
    {
      trace::Scope span("harness.explorer.baseline");
      const std::int64_t t0 = trace::now_ns();
      slot.explorer->baseline();
      setup.baseline_s += seconds_since(t0);
    }
    slot.specs = harness::curated_iact_specs(device.warp_size, harness::table2::hierarchies());
    slot.axis = slot.bench->memo_items_axis();
    setup.apps.push_back(std::move(slot));
  }
  setup.seconds = seconds_since(start);
  return setup;
}

struct Pass {
  double wall_s = 0;
  double cpu_s = 0;  ///< process CPU time during the timed phase
  std::map<std::string, std::vector<harness::RunRecord>> records;  ///< by app
  std::map<std::string, std::size_t> planned;
  RunLedger::Totals totals;
};

Pass run_pass(Setup& setup, std::size_t workers, Report& report) {
  Pass pass;
  const std::int64_t start = trace::now_ns();
  const double cpu_start = process_cpu_s();
  for (std::size_t i = 0; i < setup.apps.size(); ++i) {
    AppSlot& slot = setup.apps[i];
    const std::size_t planned = slot.specs.size() * slot.axis.size();
    pass.planned[slot.name] = planned;
    report.attempt(planned);
    trace::Scope span("harness.explorer.sweep", i);
    std::vector<std::pair<std::string, std::uint64_t>> configs;
    for (const auto& spec : slot.specs) {
      for (const std::uint64_t ipt : slot.axis) configs.emplace_back(spec.to_string(), ipt);
    }
    setup.ledger->begin_sweep(span.id(), configs);
    try {
      slot.explorer->sweep(slot.specs, slot.axis, workers);
    } catch (const std::exception& e) {
      report.fail(planned, slot.name + " sweep threw: " + e.what());
    }
  }
  pass.wall_s = seconds_since(start);
  pass.cpu_s = process_cpu_s() - cpu_start;
  for (const AppSlot& slot : setup.apps) {
    pass.records[slot.name] = slot.explorer->db().records();
  }
  pass.totals = setup.ledger->totals();
  return pass;
}

/// The CSV of every app in canonical (registry) order, as one string per app.
std::vector<std::pair<std::string, std::string>> csv_by_app(const Pass& pass) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& name : apps::benchmark_names()) {
    harness::ResultDb db;
    const auto it = pass.records.find(name);
    if (it != pass.records.end()) {
      for (const auto& r : it->second) db.add(r);
    }
    out.emplace_back(name, db_csv(db));
  }
  return out;
}

void report_layers(Report& report, const Setup& setup, const Pass& pass,
                   std::size_t workers) {
  const RunLedger::Totals& t = pass.totals;
  report.set("apps.make_s", setup.make_s, "s");
  report.set("apps.baseline_s", setup.baseline_s, "s");
  double busy = 0;
  for (const auto& [name, seconds] : t.busy_s) busy += seconds;
  report.set("harness.explorer.configs", static_cast<double>(t.configs), "count");
  report.set("harness.explorer.run_busy_s", busy, "s");
  if (!t.run_ms.empty()) {
    report.set("harness.explorer.run_p50_ms", median(t.run_ms), "ms");
    report.set("harness.explorer.run_max_ms",
               *std::max_element(t.run_ms.begin(), t.run_ms.end()), "ms");
  }
  report.set("harness.explorer.idle_s",
             static_cast<double>(workers) * pass.wall_s - busy, "s");
  for (const auto& [name, seconds] : t.busy_s) {
    report.set("harness.explorer.run_busy_s." + name, seconds, "s");
  }
  report_approx_counters(report, t);
}

}  // namespace

void run_explore_iact(const WorkloadConfig& config, Report& report) {
  const std::string dir = (fs::path(kOutDir) / "explore_iact").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<std::string> order = seeded_app_order(config.seed);
  std::cout << "sweep order:";
  for (const auto& name : order) std::cout << ' ' << name;
  std::cout << '\n';

  PassSamples samples;
  std::vector<Pass> passes;
  double untraced_wall = 0;
  const std::int64_t run_start = trace::now_ns();
  bool traced = false;
  while (next_pass(config, passes.size(), seconds_since(run_start), traced)) {
    trace::set_enabled(traced);
    Setup setup = set_up(order);
    samples.setup_s.push_back(setup.seconds);
    const std::int64_t window_start = trace::now_ns();
    Pass pass = run_pass(setup, config.workers, report);
    const std::int64_t window_end = trace::now_ns();
    trace::set_enabled(false);
    if (traced) {
      const std::vector<trace::Span> spans = trace::collect();
      report_layers(report, setup, pass, config.workers);
      report.set("trace.coverage", trace::coverage(spans, window_start, window_end), "ratio");
      report.set("trace.overhead_ratio", pass.wall_s / untraced_wall - 1.0, "ratio");
      trace::dump(spans, (fs::path(dir) / "trace.jsonl").string());
    } else {
      untraced_wall = pass.wall_s;
      samples.add_pass(pass.wall_s, pass.cpu_s, pass.totals.run_ms);
    }
    // Keep only what the output checks need.
    pass.totals.run_ms.clear();
    note_peak_rss(report);
    passes.push_back(std::move(pass));
  }
  while (samples.setup_s.size() < kSetupReps) {
    samples.setup_s.push_back(set_up(order).seconds);
  }
  report_end_to_end(report, samples);

  // --- output checks, outside the timed phase ---
  const Pass& first = passes.front();
  for (const auto& [name, planned] : first.planned) {
    const std::size_t got = first.records.at(name).size();
    if (got != planned) {
      report.fail(planned > got ? planned - got : 1,
                  name + ": " + std::to_string(got) + " records, planned " +
                      std::to_string(planned));
    }
  }
  const auto csvs = csv_by_app(first);
  std::string all;
  for (const auto& [name, csv] : csvs) {
    const std::string path = (fs::path(dir) / (name + ".csv")).string();
    write_file(path, csv);
    std::string why;
    if (!csv_matches(path, csv, why)) report.check_failed(why);
    all += csv;
  }
  const std::string digest = hex_digest(fnv1a(all));
  std::cout << "csv digest: " << digest << " (" << passes.size() << " passes)\n";
  for (std::size_t p = 1; p < passes.size(); ++p) {
    std::string again;
    for (const auto& [name, csv] : csv_by_app(passes[p])) again += csv;
    if (again != all) report.check_failed("pass " + std::to_string(p) + " CSV digest differs");
  }
  // A fixed sample: the middle config of every app, re-evaluated serially
  // with the SIMD paths off.
  for (const auto& [name, records] : first.records) {
    if (records.empty()) continue;
    const harness::RunRecord& swept = records[records.size() / 2];
    const harness::RunRecord reference = reevaluate_reference(
        name, "v100", pragma::parse_approx(swept.spec_text), swept.items_per_thread);
    report.attempt();
    if (record_row(reference) != record_row(swept)) {
      report.fail(1, name + ": sampled config differs from its serial reference: " +
                         swept.spec_text);
    }
  }
  std::vector<harness::RunRecord> every;
  for (const auto& [name, records] : first.records) {
    every.insert(every.end(), records.begin(), records.end());
  }
  const std::size_t nonfinite = nonfinite_feasible(every);
  std::cout << "feasible records with a non-finite QoI: " << nonfinite << '\n';
  if (config.trace) {
    report.set("harness.nonfinite_feasible", static_cast<double>(nonfinite), "count");
    measure_iact_scan(report, config.seed);
    measure_region_exec(report);
  }
}

}  // namespace perfbench

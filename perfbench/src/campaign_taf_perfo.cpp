// campaign_taf_perfo: Campaign::run(store) over all apps x {v100, mi250x}
// x curated TAF + perforation specs x items-per-thread {8, 64}, journaled
// to a scratch file and finalized. The paper's cross-vendor portability
// sweep; it never runs the iACT scan, so it is the no-change control for
// iACT work. Its trace run also serves the finished journal through hpacd
// (serving.cpp) to measure the service layers.
//
// Campaign::run constructs each shard's app and runs its accurate baseline
// inside the timed pass, so that work is part of wall_s. setup_s is
// measured on a standalone replica of it (set_up below), made after the
// timed passes.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <thread>

#include "apps/registry.hpp"
#include "checks.hpp"
#include "harness/campaign.hpp"
#include "harness/explorer.hpp"
#include "harness/params.hpp"
#include "harness/result_store.hpp"
#include "micro.hpp"
#include "pragma/parser.hpp"
#include "serving.hpp"
#include "sim/device.hpp"
#include "stats.hpp"
#include "timed_benchmark.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace hpac;

namespace {


std::vector<pragma::ApproxSpec> taf_perfo_specs() {
  std::vector<pragma::ApproxSpec> specs =
      harness::curated_taf_specs(harness::table2::hierarchies());
  for (auto& spec : harness::curated_perfo_specs()) specs.push_back(std::move(spec));
  return specs;
}

struct SetupTimes {
  double seconds = 0;
  double make_s = 0;
  double baseline_s = 0;
};

/// App construction plus the accurate baseline of every (app, device)
/// shard: a replica of the work each campaign shard starts with.
SetupTimes set_up(const std::vector<std::string>& order) {
  SetupTimes times;
  const std::int64_t start = trace::now_ns();
  for (const std::string& name : order) {
    std::unique_ptr<harness::Benchmark> app;
    {
      trace::Scope span("apps.make_benchmark");
      const std::int64_t t0 = trace::now_ns();
      app = apps::make_benchmark(name);
      times.make_s += seconds_since(t0);
    }
    for (const std::string& device : kCampaignDevices) {
      harness::Explorer explorer(*app, sim::device_by_name(device));
      trace::Scope span("harness.explorer.baseline");
      const std::int64_t t0 = trace::now_ns();
      explorer.baseline();
      times.baseline_s += seconds_since(t0);
    }
  }
  times.seconds = seconds_since(start);
  return times;
}

/// Every fourth TAF and every fourth perforation spec of the campaign's
/// grid. Campaign::run builds its apps itself, so its runs cannot be
/// wrapped in a TimedBenchmark; the trace run sweeps this fixed sample
/// again, outside the timed phase, to report the approx.* counters.
std::vector<pragma::ApproxSpec> sampled_specs() {
  std::vector<pragma::ApproxSpec> sample;
  const auto take = [&sample](const std::vector<pragma::ApproxSpec>& specs) {
    for (std::size_t i = 0; i < specs.size(); i += 4) sample.push_back(specs[i]);
  };
  take(harness::curated_taf_specs(harness::table2::hierarchies()));
  take(harness::curated_perfo_specs());
  return sample;
}

/// Sweeps the sampled specs at ipt 64 on every (app, device) shard through
/// TimedBenchmark-wrapped Explorers, checks each record against the
/// campaign's row for the same tuple, and returns the summed counters.
RunLedger::Totals sweep_sample(const harness::ResultDb& campaign_db, std::size_t workers,
                               Report& report) {
  const auto ledger = std::make_shared<RunLedger>();
  const std::vector<pragma::ApproxSpec> specs = sampled_specs();
  for (const std::string& name : apps::benchmark_names()) {
    for (const std::string& device : kCampaignDevices) {
      TimedBenchmark bench(apps::make_benchmark(name), ledger);
      harness::Explorer explorer(bench, sim::device_by_name(device));
      report.attempt(specs.size());
      try {
        explorer.sweep(specs, {64}, workers);
      } catch (const std::exception& e) {
        report.fail(specs.size(), name + "." + device + " sample sweep threw: " + e.what());
        continue;
      }
      for (const harness::RunRecord& r : explorer.db().records()) {
        const auto match = campaign_db.where([&r](const harness::RunRecord& c) {
          return c.benchmark == r.benchmark && c.device == r.device &&
                 c.spec_text == r.spec_text && c.items_per_thread == r.items_per_thread;
        });
        if (match.size() != 1 || record_row(match.front()) != record_row(r)) {
          report.fail(1, name + "." + device + ": sampled row differs from the campaign's: " +
                             r.spec_text);
        }
      }
    }
  }
  return ledger->totals();
}

struct Completion {
  std::int64_t at_ns = 0;
  std::thread::id thread;
  std::string shard;  ///< "<benchmark>.<device>"
};

struct Pass {
  std::int64_t start_ns = 0;
  double wall_s = 0;
  double cpu_s = 0;  ///< process CPU time during the timed phase
  std::string journal;
  harness::CampaignResult result;
  std::vector<Completion> completions;
  std::vector<double> op_ms;
};

Pass run_pass(const std::vector<std::string>& order, std::size_t workers,
              const std::string& journal, Report& report) {
  Pass pass;
  pass.journal = journal;
  fs::remove(journal);
  harness::CampaignPlan plan;
  plan.benchmarks = order;
  plan.devices = kCampaignDevices;
  plan.specs_for = [](const sim::DeviceConfig&) { return taf_perfo_specs(); };
  plan.items_per_thread = {8, 64};
  plan.num_threads = workers;
  // Invocations are serialized by the campaign's callback mutex.
  plan.on_record = [&pass](const harness::RunRecord& r) {
    pass.completions.push_back(
        Completion{trace::now_ns(), std::this_thread::get_id(), r.benchmark + "." + r.device});
  };
  const std::size_t planned = order.size() * kCampaignDevices.size() * taf_perfo_specs().size() *
                              plan.items_per_thread.size();
  report.attempt(planned);

  const std::int64_t start = trace::now_ns();
  pass.start_ns = start;
  const double cpu_start = process_cpu_s();
  try {
    trace::Scope span("harness.campaign.run");
    harness::Campaign campaign(plan);
    harness::ResultStore store(journal);
    pass.result = campaign.run(store);
    trace::Scope finalize_span("harness.store.finalize");
    store.finalize(pass.result.db);
  } catch (const std::exception& e) {
    report.fail(planned, std::string("campaign threw: ") + e.what());
  }
  pass.wall_s = seconds_since(start);
  pass.cpu_s = process_cpu_s() - cpu_start;

  // Per-config latency as the worker saw it: the gap since that thread's
  // previous completion (or since the run began), journal append included.
  std::map<std::thread::id, std::int64_t> last;
  for (const Completion& c : pass.completions) {
    const auto it = last.find(c.thread);
    const std::int64_t since = it == last.end() ? start : it->second;
    pass.op_ms.push_back(static_cast<double>(c.at_ns - since) * 1e-6);
    last[c.thread] = c.at_ns;
  }
  const std::size_t got = pass.result.db.size();
  if (got != planned || pass.result.evaluated != planned) {
    report.fail(planned > got ? planned - got : 1,
                "campaign produced " + std::to_string(got) + " records (" +
                    std::to_string(pass.result.evaluated) + " evaluated), planned " +
                    std::to_string(planned));
  }
  return pass;
}

void report_layers(Report& report, const SetupTimes& setup, const Pass& pass) {
  report.set("apps.make_s", setup.make_s, "s");
  report.set("apps.baseline_s", setup.baseline_s, "s");
  report.set("harness.campaign.records", static_cast<double>(pass.completions.size()),
             "count");
  std::map<std::string, double> done_s;  // shard -> its last completion
  for (const Completion& c : pass.completions) {
    done_s[c.shard] = static_cast<double>(c.at_ns - pass.start_ns) * 1e-9;
  }
  std::vector<double> finish;
  for (const std::string& name : apps::benchmark_names()) {
    for (const std::string& device : kCampaignDevices) {
      const auto it = done_s.find(name + "." + device);
      const double at = it == done_s.end() ? 0.0 : it->second;
      report.set("harness.campaign.shard_done_s." + name + "." + device, at, "s");
      finish.push_back(at);
    }
  }
  std::sort(finish.begin(), finish.end());
  report.set("harness.campaign.straggler_s",
             finish.size() < 2 ? 0.0 : pass.wall_s - finish[finish.size() - 2], "s");
}

}  // namespace

void run_campaign_taf_perfo(const WorkloadConfig& config, Report& report) {
  const std::string dir = (fs::path(kOutDir) / "campaign_taf_perfo").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  // The plan keeps the registry order, like hpac_campaign: the shard
  // schedule (and so the straggler tail) is then the same for every seed.
  const std::vector<std::string> order = apps::benchmark_names();

  PassSamples samples;
  std::vector<Pass> passes;
  double untraced_wall = 0;
  const std::int64_t run_start = trace::now_ns();
  bool traced = false;
  while (next_pass(config, passes.size(), seconds_since(run_start), traced)) {
    trace::set_enabled(traced);
    // Traced only: attributes the campaign's set-up work to apps.*.
    const SetupTimes setup = traced ? set_up(order) : SetupTimes{};
    const std::string journal =
        (fs::path(dir) / ("journal_" + std::to_string(passes.size()) + ".csv")).string();
    Pass pass = run_pass(order, config.workers, journal, report);
    trace::set_enabled(false);
    if (traced) {
      const std::vector<trace::Span> spans = trace::collect();
      report_layers(report, setup, pass);
      report.set("trace.coverage",
                 trace::coverage(spans, pass.start_ns,
                                 pass.start_ns + static_cast<std::int64_t>(pass.wall_s * 1e9)),
                 "ratio");
      report.set("trace.overhead_ratio", pass.wall_s / untraced_wall - 1.0, "ratio");
      trace::dump(spans, (fs::path(dir) / "trace.jsonl").string());
    } else {
      untraced_wall = pass.wall_s;
      samples.add_pass(pass.wall_s, pass.cpu_s, pass.op_ms);
    }
    note_peak_rss(report);
    passes.push_back(std::move(pass));
  }
  while (samples.setup_s.size() < kSetupReps) {
    samples.setup_s.push_back(set_up(order).seconds);
  }
  report_end_to_end(report, samples);

  // --- output checks, outside the timed phase ---
  const Pass& first = passes.front();
  const std::string csv = db_csv(first.result.db);
  std::string why;
  if (!csv_matches(first.journal, csv, why)) report.check_failed(why);
  std::cout << "csv digest: " << hex_digest(fnv1a(csv)) << " (" << passes.size()
            << " passes)\n";
  for (std::size_t p = 1; p < passes.size(); ++p) {
    if (db_csv(passes[p].result.db) != csv) {
      report.check_failed("pass " + std::to_string(p) + " CSV digest differs");
    }
  }
  // A fixed sample: one tuple per app (devices alternating, the middle
  // spec, ipt 64), re-evaluated serially with the SIMD paths off.
  const std::vector<pragma::ApproxSpec> specs = taf_perfo_specs();
  const std::string sample_spec = specs[specs.size() / 2].to_string();
  const std::vector<std::string> names = apps::benchmark_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& device = kCampaignDevices[i % kCampaignDevices.size()];
    const auto records = first.result.db.where([&](const harness::RunRecord& r) {
      return r.benchmark == names[i] && r.device == device && r.spec_text == sample_spec &&
             r.items_per_thread == 64;
    });
    report.attempt();
    if (records.size() != 1) {
      report.fail(1, "sampled tuple missing: " + names[i] + " " + device + " " + sample_spec);
      continue;
    }
    const harness::RunRecord reference = reevaluate_reference(
        names[i], device, pragma::parse_approx(sample_spec), 64);
    if (record_row(reference) != record_row(records.front())) {
      report.fail(1, names[i] + ": sampled tuple differs from its serial reference");
    }
  }
  const std::size_t nonfinite = nonfinite_feasible(first.result.db.records());
  std::cout << "feasible records with a non-finite QoI: " << nonfinite << '\n';
  if (config.trace) {
    report.set("harness.nonfinite_feasible", static_cast<double>(nonfinite), "count");
    report_approx_counters(report, sweep_sample(first.result.db, config.workers, report));
    measure_store(report, first.journal, dir);
    measure_iact_scan(report, config.seed);
    measure_region_exec(report);
    measure_serving(config, first.journal, dir, report);
  }
}

}  // namespace perfbench

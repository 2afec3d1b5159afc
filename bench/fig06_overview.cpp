// Figure 6 (and Table 1): for every benchmark and both platforms, the
// highest speedup whose quality loss stays below 10%, per approximation
// technique, plus the error distribution of qualifying configurations.
//
// Paper claims reproduced here:
//  * TAF is typically the best technique under the error bound; iACT the
//    worst (insights 4 and 6).
//  * MiniFE is excluded: its error is always > 10% (Figure 6 caption).
//  * Headline: up to 6.9x speedup (Binomial Options, TAF), geomean 1.42x.
//
// Default: curated fixed-budget sweep (~minutes); --quick/--full run the
// strided/complete Table 2 grids.

#include <cstdio>
#include <map>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/analysis.hpp"
#include "harness/explorer.hpp"

using namespace hpac;
using namespace hpac::harness;

int main(int argc, char** argv) {
  bench::Options opts = bench::parse_options(argc, argv);
  bench::print_banner("Figure 6 — highest speedup with error < 10%",
                      "TAF typically best, iACT worst; MiniFE always exceeds 10% error; "
                      "up to 6.9x (BO TAF), geomean 1.42x");

  const std::vector<pragma::HierarchyLevel> levels = table2::hierarchies();
  const double kMaxError = 10.0;

  std::vector<double> best_speedups;  // for the geomean headline
  ResultDb cross_device;              // for the portability comparison
  for (const auto& device : opts.devices) {
    std::printf("--- platform: %s (%d SMs, warp %d) ---\n", device.name.c_str(),
                device.num_sms, device.warp_size);
    TextTable table({"benchmark", "technique", "best speedup", "error %", "ipt", "spec"});
    ResultDb all;

    for (const std::string& name : apps::benchmark_names()) {
      auto app = apps::make_benchmark(name);
      Explorer explorer(*app, device);

      const std::vector<std::uint64_t> memo_ipt =
          opts.density ? items_per_thread_axis(*opts.density) : app->memo_items_axis();
      explorer.sweep(bench::grid(pragma::Technique::kTafMemo, opts, device, levels), memo_ipt);
      explorer.sweep(bench::grid(pragma::Technique::kIactMemo, opts, device, levels), memo_ipt);
      explorer.sweep(bench::grid(pragma::Technique::kPerforation, opts, device, levels), {1, 8});

      for (const auto& technique :
           {pragma::Technique::kPerforation, pragma::Technique::kTafMemo,
            pragma::Technique::kIactMemo}) {
        auto records = explorer.db().where(
            [&](const RunRecord& r) { return r.technique == technique; });
        auto best = best_under_error(records, kMaxError);
        if (best) {
          table.add_row({name, pragma::technique_name(technique),
                         strings::format("%.2fx", best->speedup),
                         strings::format("%.3f", best->error_percent),
                         std::to_string(best->items_per_thread), best->spec_text});
          if (best->speedup > 0) best_speedups.push_back(best->speedup);
        } else {
          const bool any_feasible =
              !explorer.db()
                   .where([&](const RunRecord& r) {
                     return r.technique == technique && r.feasible;
                   })
                   .empty();
          table.add_row({name, pragma::technique_name(technique), "-", "-", "-",
                         any_feasible ? "excluded: error always >= 10%"
                                      : "not applicable"});
        }
      }
      for (auto& r : explorer.db().records()) all.add(r);
    }
    std::printf("%s\n", table.render().c_str());

    // Error distribution of qualifying configs (Figure 6, top panels).
    TextTable dist({"benchmark", "configs < 10%", "err min", "err median", "err max"});
    for (const std::string& name : apps::benchmark_names()) {
      auto errors = errors_under(
          all.where([&](const RunRecord& r) { return r.benchmark == name; }), kMaxError);
      if (errors.empty()) {
        dist.add_row({name, "0", "-", "-", "-"});
        continue;
      }
      dist.add_row({name, std::to_string(errors.size()),
                    bench::fmt(stats::percentile(errors, 0)),
                    bench::fmt(stats::percentile(errors, 50)),
                    bench::fmt(stats::percentile(errors, 100))});
    }
    std::printf("%s\n", dist.render().c_str());
    for (const auto& r : all.records()) cross_device.add(r);
    bench::save_db(all, opts, "fig06_" + device.name);
  }

  // Portability comparison: the same directives on every platform swept.
  if (opts.devices.size() > 1) {
    TextTable portability({"device", "geomean best (<10% err)", "feasible", "configs"});
    for (const auto& row : per_device_geomean_best(cross_device.records(), kMaxError)) {
      portability.add_row({row.device,
                           row.geomean_best > 0 ? strings::format("%.2fx", row.geomean_best)
                                                : "-",
                           std::to_string(row.feasible), std::to_string(row.total)});
    }
    std::printf("%s\n", portability.render().c_str());
  }

  if (!best_speedups.empty()) {
    std::printf("geomean of best per-benchmark-technique speedups (<10%% error): %.2fx "
                "(paper: 1.42x geomean, 6.9x max)\n\n",
                stats::geomean(best_speedups));
  }
  return 0;
}

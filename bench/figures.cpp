// Figures 7-12: the per-application speedup-vs-error results, as one
// table of figure descriptors and one driver. CMake builds each figure's
// binary (fig07_lulesh ... fig12_kmeans) from this file, with HPAC_FIGURE
// naming the descriptor it runs.
//
// Every figure runs the same skeleton: banner; then per device and part,
// an Explorer over the part's registry benchmark, the part's sweeps in
// order, one best-under-10% line per swept technique, the part's panel and
// the CSV save; then the figure's after-devices panel, if it has one.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "apps/binomial.hpp"
#include "apps/blackscholes.hpp"
#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/analysis.hpp"
#include "harness/explorer.hpp"
#include "pragma/parser.hpp"

#ifndef HPAC_FIGURE
#error "HPAC_FIGURE must name the figure this binary runs, e.g. \"fig07_lulesh\""
#endif

using namespace hpac;
using namespace hpac::harness;
using pragma::Technique;

namespace {

constexpr double kMaxError = 10.0;

/// Spec generator for a sweep that does not use bench::grid.
using SpecSource = std::vector<pragma::ApproxSpec> (*)();
/// Per-device panel of a part: runs after the best lines, before the save.
using PartPanel = void (*)(Explorer& explorer);
/// Figure-wide panel run after every device; builds its own Explorers.
using FigurePanel = void (*)(const bench::Options& opts);

struct Sweep {
  Technique technique;
  SpecSource custom;  ///< nullptr: bench::grid for the technique
  std::vector<std::uint64_t> items_per_thread;
};

struct Part {
  std::string benchmark;  ///< apps::make_benchmark name
  std::string csv_stem;   ///< the CSV is <csv_stem>_<device>.csv
  /// Forces every spec to one hierarchy level (deduplicated afterwards).
  std::optional<pragma::HierarchyLevel> level;
  std::vector<Sweep> sweeps;
  PartPanel panel = nullptr;
};

struct Figure {
  std::string binary;
  std::string title;
  std::string paper_claim;
  std::vector<Part> parts;
  FigurePanel after_devices = nullptr;
};

std::vector<RunRecord> records_of(const Explorer& explorer, Technique technique) {
  return explorer.db().where([&](const RunRecord& r) { return r.technique == technique; });
}

// --- Figure 7: LULESH ------------------------------------------------------
// Perforation, TAF and iACT speedup-vs-MAPE clouds on both platforms
// (panels a-f). Perforation reaches 1.64x/1.67x under 7% MAPE, with fini
// inducing less error than ini (the first — origin — elements carry the
// blast and matter more); TAF 1.30x/1.45x at ~0.67%; iACT lower error but
// only 1.07x/1.15x.

void lulesh_ini_fini_and_cloud(Explorer& explorer) {
  // ini vs fini: mean error at matched skip fractions.
  for (const char* kind : {"ini", "fini"}) {
    auto records = explorer.db().where([&](const RunRecord& r) {
      return r.perfo_kind == kind && r.feasible && r.items_per_thread == 1;
    });
    double err_sum = 0;
    for (const auto& r : records) err_sum += r.error_percent;
    std::printf("  perfo %-4s mean MAPE over %zu configs: %.3f%%\n", kind, records.size(),
                records.empty() ? 0.0 : err_sum / static_cast<double>(records.size()));
  }

  // The scatter itself, decimated like the paper's plots.
  TextTable cloud({"technique", "spec", "ipt", "speedup", "MAPE %"});
  for (const auto& r : decimate_for_plot(explorer.db().records(), 10, 0.10)) {
    cloud.add_row({pragma::technique_name(r.technique), r.spec_text,
                   std::to_string(r.items_per_thread), strings::format("%.3f", r.speedup),
                   strings::format("%.4f", r.error_percent)});
  }
  std::printf("\ndecimated speedup/MAPE cloud (fastest+slowest 10%% per error bin):\n%s\n",
              cloud.render().c_str());
}

// --- Figure 8: Binomial Options --------------------------------------------
// Panels (a)/(b): TAF and iACT with *block-level* decision-making (an
// entire block prices one option in the original code, so the paper only
// uses level(team)): TAF up to 6.90x @ 1.40%, iACT 5.64x @ 1.42% (NVIDIA).
// Panel (c): speedup rises with items per thread, peaks, then declines as
// the device can no longer hide latency — earlier on the AMD part, which
// has more SMs.

void binomial_parallelism(const bench::Options& opts) {
  std::printf("panel (c): speedup and %% approximated vs items per thread\n");
  TextTable table({"items/thread", "platform", "speedup", "% approximated"});
  const pragma::ApproxSpec spec =
      pragma::parse_approx("memo(out:3:512:20) level(team) out(price[i])");
  for (const auto& device : opts.devices) {
    apps::BinomialOptions app;
    Explorer explorer(app, device);
    for (std::uint64_t ipt : {1, 4, 16, 64, 256, 1024, 4096, 16384}) {
      RunRecord r = explorer.run_config(spec, ipt);
      table.add_row({std::to_string(ipt), device.name, strings::format("%.3f", r.speedup),
                     strings::format("%.1f", 100.0 * r.approx_ratio)});
    }
    bench::save_db(explorer.db(), opts, "fig08c_binomial_" + device.name);
  }
  std::printf("%s\n", table.render().c_str());
}

// --- Figure 9: Leukocyte (a/b) and MiniFE (c) ------------------------------
// Leukocyte TAF reaches ~1.99x at ~1.12% error; its iACT lowers error but
// always slows the application down (cache lookups + euclidean distances
// outweigh the IMGVF update). MiniFE TAF errors explode (593% .. 3.4e22%)
// because locally introduced SpMV errors propagate through CG iterations,
// and iACT is not applicable to it (non-uniform CSR row inputs).

void leukocyte_iact_slowdown(Explorer& explorer) {
  auto iact_records = explorer.db().where([](const RunRecord& r) {
    return r.technique == Technique::kIactMemo && r.feasible;
  });
  double max_speedup = 0;
  double min_err = 1e300;
  for (const auto& r : iact_records) {
    max_speedup = std::max(max_speedup, r.speedup);
    min_err = std::min(min_err, r.error_percent);
  }
  std::printf("  leukocyte iACT: max speedup %.2fx over %zu configs "
              "(paper: always < 1x), min error %.3g%%\n",
              max_speedup, iact_records.size(), min_err);
}

void minife_error_range_and_iact(Explorer& explorer) {
  double min_err = 1e300, max_err = 0;
  std::size_t approximating = 0;
  for (const auto& r : explorer.db().records()) {
    if (!r.feasible || r.approx_ratio <= 0.0) continue;
    ++approximating;
    min_err = std::min(min_err, r.error_percent);
    max_err = std::max(max_err, r.error_percent);
  }
  std::printf("  minife TAF error range over %zu approximating configs: "
              "%.3g%% .. %.3g%% (paper: 593%% .. 3.4e22%%)\n",
              approximating, approximating ? min_err : 0.0, max_err);

  // iACT is rejected: the SpMV region has no uniform input width.
  RunRecord rejected =
      explorer.run_config(pragma::parse_approx("memo(in:4:0.5:2) in(row[i]) out(y[i])"), 8);
  std::printf("  minife iACT: %s (%s)\n", rejected.feasible ? "UNEXPECTEDLY RAN" : "not applicable",
              rejected.note.c_str());
}

// --- Figure 10: Blackscholes (kernel time) ---------------------------------
// Kernel time only: 99% of the end-to-end time is allocation + transfer.
// Panels (a)/(b): TAF up to 2.26x @ 0.015% MAPE on AMD, best at high
// prediction size and threshold; iACT slows the kernel down. Panel (c):
// output prices vs the RSD threshold at history 5 / prediction 512, whose
// quality interacts unintuitively with the threshold around T = 3.0.

void blackscholes_iact_slowdown(Explorer& explorer) {
  double iact_max = 0;
  for (const auto& r : explorer.db().records()) {
    if (r.technique == Technique::kIactMemo && r.feasible) {
      iact_max = std::max(iact_max, r.speedup);
    }
  }
  std::printf("  iACT max speedup: %.2fx (paper: < 1x)\n", iact_max);
}

void blackscholes_threshold(const bench::Options& opts) {
  std::printf("panel (c): price distribution, TAF hSize 5 / pSize 512, vs threshold\n");
  const sim::DeviceConfig device = opts.devices.back();  // AMD when both are present
  apps::Blackscholes app;
  Explorer explorer(app, device);
  const RunOutput& exact = explorer.baseline();

  TextTable table({"threshold", "MAPE %", "mean price", "p5", "p50", "p95"});
  auto describe = [&](const std::string& label, const std::vector<double>& prices,
                      double mape) {
    table.add_row({label, strings::format("%.4f", mape),
                   bench::fmt(stats::mean(prices), "%.4f"),
                   bench::fmt(stats::percentile(prices, 5), "%.4f"),
                   bench::fmt(stats::percentile(prices, 50), "%.4f"),
                   bench::fmt(stats::percentile(prices, 95), "%.4f")});
  };
  describe("exact", exact.qoi, 0.0);
  for (double threshold : {0.5, 1.0, 2.0, 3.0, 5.0, 20.0}) {
    pragma::ApproxSpec spec;
    spec.technique = Technique::kTafMemo;
    spec.taf = pragma::TafParams{5, 512, threshold};
    spec.out_sections.push_back("price[i]");
    apps::Blackscholes fresh;
    // A stride that does *not* divide the input's tiling period, so each
    // thread walks across distinct options and the RSD threshold decides
    // how aggressively unrepresentative values are emitted (panel c).
    RunOutput approx = fresh.run(spec, 24, device);
    describe(strings::format("T=%g", threshold), approx.qoi,
             stats::mape_percent(exact.qoi, approx.qoi));
  }
  std::printf("%s\n", table.render().c_str());
}

// --- Figure 11: LavaMD -----------------------------------------------------
// Panels (a)/(b): TAF up to 2.98x at ~0.133% error, better at high
// thresholds and prediction sizes; iACT lowers error but slows the
// application (shared-table access + euclidean distances cost more than
// the force computation saves). Panel (c): warp-level decision-making
// raises the speedup distribution by eliminating approximation-induced
// control divergence (median up to 2.27x higher).

/// TAF across thresholds and both hierarchy levels (panels a, c).
std::vector<pragma::ApproxSpec> lavamd_taf_grid() {
  std::vector<pragma::ApproxSpec> taf;
  for (double thr : {0.3, 0.6, 0.9, 1.2, 1.5, 3.0, 5.0, 20.0}) {
    for (int p : {2, 4, 16, 128}) {
      for (auto level : table2::hierarchies()) {
        pragma::ApproxSpec spec;
        spec.technique = Technique::kTafMemo;
        spec.taf = pragma::TafParams{3, p, thr};
        spec.level = level;
        spec.out_sections.push_back("force[i]");
        taf.push_back(spec);
      }
    }
  }
  return taf;
}

void lavamd_iact_and_hierarchy_boxes(Explorer& explorer) {
  double iact_max = 0;
  double iact_min_err = 1e300;
  for (const auto& r : explorer.db().records()) {
    if (r.technique == Technique::kIactMemo && r.feasible) {
      iact_max = std::max(iact_max, r.speedup);
      iact_min_err = std::min(iact_min_err, r.error_percent);
    }
  }
  std::printf("  iACT: max speedup %.2fx (paper < 1x), min error %.3g%%\n", iact_max,
              iact_min_err);

  // Panel (c): speedup distribution per (threshold, hierarchy).
  auto groups =
      group_box_stats(records_of(explorer, Technique::kTafMemo), [](const RunRecord& r) {
        return strings::format("T=%-4g %s", r.threshold, pragma::hierarchy_name(r.level).c_str());
      });
  TextTable boxes({"group", "n", "min", "q1", "median", "q3", "max"});
  for (const auto& g : groups) {
    boxes.add_row({g.key, std::to_string(g.count), bench::fmt(g.box.min), bench::fmt(g.box.q1),
                   bench::fmt(g.box.median), bench::fmt(g.box.q3), bench::fmt(g.box.max)});
  }
  std::printf("\npanel (c) — TAF speedup distribution by threshold x hierarchy:\n%s\n",
              boxes.render().c_str());
}

// --- Figure 12: K-Means ----------------------------------------------------
// Panels (a)/(b): TAF and iACT speedup vs misclassification rate (MCR).
// Panel (c): time speedup vs convergence speedup — the speedup comes
// primarily from converging in fewer iterations because memoized
// assignments herd observations into their previous clusters (paper:
// R^2 = 0.95).

/// The paper's K-Means history sizes (Figure 12a legend: 2..16) and
/// thresholds.
std::vector<pragma::ApproxSpec> kmeans_taf_grid() {
  std::vector<pragma::ApproxSpec> taf;
  for (int h : {2, 3, 5, 8, 16}) {
    for (double thr : {0.3, 0.9, 1.5, 5.0}) {
      pragma::ApproxSpec spec;
      spec.technique = Technique::kTafMemo;
      spec.taf = pragma::TafParams{h, 64, thr};
      spec.level = pragma::HierarchyLevel::kWarp;
      spec.out_sections.push_back("membership[i]");
      taf.push_back(spec);
    }
  }
  return taf;
}

std::vector<pragma::ApproxSpec> kmeans_iact_grid() {
  std::vector<pragma::ApproxSpec> iact;
  for (int tsize : {1, 2, 4, 8}) {
    for (double thr : {0.1, 0.3, 0.5, 0.9}) {
      pragma::ApproxSpec spec;
      spec.technique = Technique::kIactMemo;
      spec.iact = pragma::IactParams{tsize, thr, 2};
      spec.in_sections.push_back("obs[i]");
      spec.out_sections.push_back("membership[i]");
      iact.push_back(spec);
    }
  }
  return iact;
}

void kmeans_convergence(Explorer& explorer) {
  auto corr = convergence_correlation(records_of(explorer, Technique::kTafMemo));
  std::printf("  panel (c): time vs convergence speedup over %zu runs: "
              "slope %.3f, R^2 = %.3f (paper: 0.95)\n",
              corr.time_speedup.size(), corr.regression.slope, corr.regression.r2);

  TextTable sample({"conv speedup", "time speedup"});
  for (std::size_t i = 0; i < corr.time_speedup.size(); i += 8) {
    sample.add_row({strings::format("%.3f", corr.convergence_speedup[i]),
                    strings::format("%.3f", corr.time_speedup[i])});
  }
  std::printf("\nsampled (c) series:\n%s\n", sample.render().c_str());
}

// --- The descriptor table --------------------------------------------------

const std::vector<Figure>& figures() {
  static const std::vector<Figure> table = {
      {"fig07_lulesh", "Figure 7 — LULESH: perforation / TAF / iACT",
       "perfo 1.64x@<7% (NV), 1.67x (AMD); fini < ini error; "
       "TAF 1.30x/1.45x @ 0.67%; iACT 1.07x/1.15x @ 0.3%",
       {{"lulesh", "fig07_lulesh", std::nullopt,
         {{Technique::kPerforation, nullptr, {1, 8, 64, 512}},
          {Technique::kTafMemo, nullptr, {4, 8, 32, 128, 512}},
          {Technique::kIactMemo, nullptr, {8, 64}}},
         lulesh_ini_fini_and_cloud}}},
      {"fig08_binomial", "Figure 8 — Binomial Options: TAF/iACT (block level) + parallelism",
       "TAF 6.90x @ 1.40%, iACT 5.64x @ 1.42% (NVIDIA); items-per-thread "
       "hump with AMD declining earlier",
       {{"binomial_options", "fig08ab_binomial", pragma::HierarchyLevel::kBlock,
         {{Technique::kTafMemo, nullptr, {32, 128, 512}},
          {Technique::kIactMemo, nullptr, {32, 128}}}}},
       binomial_parallelism},
      {"fig09_leukocyte_minife", "Figure 9 — Leukocyte (TAF, iACT) and MiniFE (TAF)",
       "Leukocyte TAF 1.99x @ 1.12%; iACT always a slowdown; MiniFE error "
       "593%..3.4e22%; iACT inapplicable to MiniFE",
       {{"leukocyte", "fig09ab_leukocyte", std::nullopt,
         {{Technique::kTafMemo, nullptr, {8, 64, 256}},
          {Technique::kIactMemo, nullptr, {8, 64}}},
         leukocyte_iact_slowdown},
        {"minife", "fig09c_minife", std::nullopt,
         {{Technique::kTafMemo, nullptr, {8, 64}}},
         minife_error_range_and_iact}}},
      {"fig10_blackscholes", "Figure 10 — Blackscholes (kernel time): TAF, iACT, RSD threshold",
       "TAF 2.26x @ 0.015% on AMD, best at high pSize+threshold; iACT "
       "slows down; T<3.0 activates with high error (panel c)",
       {{"blackscholes", "fig10ab_blackscholes", std::nullopt,
         {{Technique::kTafMemo, nullptr, {8, 64, 512}},
          {Technique::kIactMemo, nullptr, {8, 64}}},
         blackscholes_iact_slowdown}},
       blackscholes_threshold},
      {"fig11_lavamd", "Figure 11 — LavaMD: TAF, iACT, thread vs warp hierarchy",
       "TAF 2.98x @ 0.133% (AMD); iACT slows down; warp-level raises the "
       "speedup distribution (median up to 2.27x)",
       {{"lavamd", "fig11_lavamd", std::nullopt,
         {{Technique::kTafMemo, lavamd_taf_grid, {2, 4, 8}},
          {Technique::kIactMemo, nullptr, {2, 4}}},
         lavamd_iact_and_hierarchy_boxes}}},
      {"fig12_kmeans", "Figure 12 — K-Means: TAF, iACT, convergence correlation",
       "speedups up to ~4x from early convergence; time speedup vs "
       "convergence speedup linear with R^2 = 0.95",
       {{"kmeans", "fig12_kmeans", std::nullopt,
         {{Technique::kTafMemo, kmeans_taf_grid, {8, 32, 128, 256}},
          {Technique::kIactMemo, kmeans_iact_grid, {8, 64}}},
         kmeans_convergence}}},
  };
  return table;
}

// --- The driver ------------------------------------------------------------

/// `specs` forced to `level`, keeping the first of any specs that collapse
/// into one (grids enumerate thread+warp variants).
std::vector<pragma::ApproxSpec> at_level(std::vector<pragma::ApproxSpec> specs,
                                         pragma::HierarchyLevel level) {
  std::vector<pragma::ApproxSpec> out;
  for (auto& spec : specs) {
    spec.level = level;
    bool dup = false;
    for (const auto& have : out) dup = dup || have.to_string() == spec.to_string();
    if (!dup) out.push_back(std::move(spec));
  }
  return out;
}

/// The highest speedup under the error bound for one technique, plus its
/// highest feasible speedup at any error.
void print_best(const Explorer& explorer, const Benchmark& app, Technique technique) {
  const auto records = records_of(explorer, technique);
  double max_speedup = 0;
  for (const auto& r : records) {
    if (r.feasible) max_speedup = std::max(max_speedup, r.speedup);
  }
  std::printf("  %s %-5s best <%g%% %s: ", app.name().c_str(),
              pragma::technique_name(technique).c_str(), kMaxError,
              app.error_metric() == ErrorMetric::kMcr ? "MCR" : "MAPE");
  if (auto best = best_under_error(records, kMaxError)) {
    std::printf("%5.2fx @ %7.4f%% (%s, ipt=%llu)", best->speedup, best->error_percent,
                best->spec_text.c_str(),
                static_cast<unsigned long long>(best->items_per_thread));
  } else {
    std::printf("none");
  }
  std::printf("; max speedup %.2fx\n", max_speedup);
}

void run_part(const Part& part, const bench::Options& opts, const sim::DeviceConfig& device) {
  auto app = apps::make_benchmark(part.benchmark);
  Explorer explorer(*app, device);
  const auto levels = part.level ? std::vector{*part.level} : table2::hierarchies();
  for (const Sweep& sweep : part.sweeps) {
    auto specs =
        sweep.custom ? sweep.custom() : bench::grid(sweep.technique, opts, device, levels);
    if (part.level) specs = at_level(std::move(specs), *part.level);
    explorer.sweep(specs, sweep.items_per_thread);
  }
  for (const Sweep& sweep : part.sweeps) print_best(explorer, *app, sweep.technique);
  if (part.panel) part.panel(explorer);
  bench::save_db(explorer.db(), opts, part.csv_stem + "_" + device.name);
}

}  // namespace

int main(int argc, char** argv) {
  const auto& table = figures();
  const auto figure = std::find_if(table.begin(), table.end(),
                                   [](const Figure& f) { return f.binary == HPAC_FIGURE; });
  if (figure == table.end()) {
    std::fprintf(stderr, "no figure descriptor named %s\n", HPAC_FIGURE);
    return 2;
  }
  bench::Options opts = bench::parse_options(argc, argv);
  bench::print_banner(figure->title, figure->paper_claim);
  for (const auto& device : opts.devices) {
    std::printf("--- platform: %s ---\n", device.name.c_str());
    for (const Part& part : figure->parts) run_part(part, opts, device);
  }
  if (figure->after_devices) figure->after_devices(opts);
  return 0;
}

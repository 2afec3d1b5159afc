#pragma once

// Shared plumbing for the figure/table reproduction benches: option
// parsing (--device, --quick, --full, --out-dir), the spec grid each
// option selects, consistent headers, and CSV persistence of each bench's
// result database.

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "harness/params.hpp"
#include "harness/record.hpp"
#include "sim/device.hpp"

namespace hpac::bench {

struct Options {
  std::vector<sim::DeviceConfig> devices;  ///< platforms to evaluate
  /// Spec grid: unset sweeps the curated fixed-budget sets (default);
  /// --quick/--full sweep Table 2's strided/complete grid.
  std::optional<harness::SweepDensity> density;
  std::string out_dir = "bench_results";
};

inline Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      opts.density = harness::SweepDensity::kFull;
    } else if (arg == "--quick") {
      opts.density = harness::SweepDensity::kQuick;
    } else if (arg.rfind("--device=", 0) == 0) {
      // Any preset sim::device_by_name knows, repeatable for multi-device
      // runs: --device=v100 --device=a100. Aliases of an already-selected
      // preset (--device=v100 --device=nvidia) are deduplicated so a
      // device is never swept — and its CSV never overwritten — twice.
      try {
        sim::DeviceConfig device = sim::device_by_name(arg.substr(9));
        bool duplicate = false;
        for (const auto& existing : opts.devices) duplicate |= existing.name == device.name;
        if (!duplicate) opts.devices.push_back(std::move(device));
      } catch (const Error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
      }
    } else if (arg.rfind("--out-dir=", 0) == 0 && arg.size() > 10) {
      // An empty --out-dir= falls through to usage: no directory can be
      // created from it, so every CSV would be silently skipped.
      opts.out_dir = arg.substr(10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--full|--quick] [--device=v100|mi250x|a100]... [--out-dir=DIR]\n"
                   "  default: curated fixed-budget sweep on the paper's two platforms\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (opts.devices.empty()) {
    opts.devices.push_back(sim::v100());
    opts.devices.push_back(sim::mi250x());
  }
  return opts;
}

/// The spec grid a bench sweeps for `technique`: the curated set at
/// `levels` by default, else Table 2's grid at the chosen density (which
/// enumerates its own hierarchy levels).
inline std::vector<pragma::ApproxSpec> grid(pragma::Technique technique, const Options& opts,
                                            const sim::DeviceConfig& device,
                                            const std::vector<pragma::HierarchyLevel>& levels) {
  switch (technique) {
    case pragma::Technique::kTafMemo:
      return opts.density ? harness::taf_specs(*opts.density)
                          : harness::curated_taf_specs(levels);
    case pragma::Technique::kIactMemo:
      return opts.density ? harness::iact_specs(*opts.density, device.warp_size)
                          : harness::curated_iact_specs(device.warp_size, levels);
    case pragma::Technique::kPerforation:
      return opts.density ? harness::perfo_specs(*opts.density) : harness::curated_perfo_specs();
    case pragma::Technique::kNone:
      break;
  }
  throw ConfigError("no spec grid for technique " + pragma::technique_name(technique));
}

inline void print_banner(const std::string& experiment, const std::string& paper_claim) {
  std::printf("=== %s ===\n", experiment.c_str());
  if (!paper_claim.empty()) std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("\n");
}

inline void save_db(const harness::ResultDb& db, const Options& opts,
                    const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "warning: cannot create %s: %s\n", opts.out_dir.c_str(),
                 ec.message().c_str());
    return;
  }
  const std::string path = opts.out_dir + "/" + name + ".csv";
  db.save(path);
  std::printf("[saved %zu records to %s]\n\n", db.size(), path.c_str());
}

inline std::string fmt(double v, const char* format = "%.3g") {
  return strings::format(format, v);
}

}  // namespace hpac::bench

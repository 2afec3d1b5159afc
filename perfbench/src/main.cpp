// perfbench — runs one named workload of the repository benchmark and
// prints its metrics, then one JSON result line.
//
//   perfbench --workload explore_iact|campaign_taf_perfo
//             --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics (no spans recorded); --trace 1
// makes an untraced and a traced pass and also reports the per-layer
// metrics. The program prints every metric it measured; run.py keeps the
// set BENCHMARK.json lists for the mode.
// Scratch files (CSVs, journals, the hpacd socket, span dumps) go under
// .bench_out in the working directory. Workers and connections follow the
// host's CPU count (WorkloadConfig::for_host).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "config.hpp"
#include "report.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload explore_iact|campaign_taf_perfo\n"
               "          --seed N --seconds S --trace 0|1\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  WorkloadConfig config = WorkloadConfig::for_host(Workload::kExploreIact);
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(argv[0]);
    }
    if (key == "--workload") {
      const auto workload = workload_from_name(value);
      if (!workload) usage(argv[0]);
      config.workload = *workload;
      have_workload = true;
      continue;
    }
    char* end = nullptr;
    const double number = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || number < 0) usage(argv[0]);
    if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = number;
    } else if (key == "--trace") {
      config.trace = number != 0;
    } else {
      usage(argv[0]);
    }
  }
  if (!have_workload) usage(argv[0]);
  if (!config.isValid()) {
    std::cerr << "invalid configuration " << config << " on a host with " << host_nproc()
              << " CPUs\n";
    return 2;
  }
  std::cout << "config " << config << '\n' << "host " << host_info() << '\n';

  Report report;
  try {
    switch (config.workload) {
      case Workload::kExploreIact: run_explore_iact(config, report); break;
      case Workload::kCampaignTafPerfo: run_campaign_taf_perfo(config, report); break;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << workload_name(config.workload) << ": " << e.what() << '\n';
    return 1;
  }
  report.set("ok_ratio", report.ok_ratio(), "ratio");

  std::cout << "metrics " << (config.trace ? "(end to end and per layer)" : "(end to end)")
            << " beside config " << config << ":\n";
  report.print_table(std::cout);
  for (const auto& note : report.failure_notes()) std::cout << "FAILED: " << note << '\n';
  std::cout << report.json() << std::endl;
  return 0;
}

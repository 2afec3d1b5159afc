#include "config.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <thread>

#include "common/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kExploreIact: return "explore_iact";
    case Workload::kCampaignTafPerfo: return "campaign_taf_perfo";
  }
  return "?";
}

std::optional<Workload> workload_from_name(const std::string& name) {
  for (Workload w : {Workload::kExploreIact, Workload::kCampaignTafPerfo}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

std::size_t host_nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

WorkloadConfig WorkloadConfig::for_host(Workload workload) {
  WorkloadConfig config;
  config.workload = workload;
  config.workers = host_nproc();
  config.connections = std::max<std::size_t>(1, host_nproc() / 2);
  return config;
}

bool WorkloadConfig::isValid() const {
  const std::size_t nproc = host_nproc();
  return seconds > 0 && workers >= 1 && workers <= nproc && connections >= 1 &&
         connections <= nproc;
}

std::ostream& operator<<(std::ostream& os, const WorkloadConfig& config) {
  return os << "(workload: " << workload_name(config.workload)
            << ", seed: " << config.seed
            << ", seconds: " << config.seconds
            << ", trace: " << config.trace
            << ", workers: " << config.workers
            << ", connections: " << config.connections << ")";
}

HostInfo host_info() {
  HostInfo host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) host.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  host.nproc = host_nproc();
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("g++ ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.simd_level = hpac::simd::level_name(hpac::simd::active_level());
  return host;
}

std::ostream& operator<<(std::ostream& os, const HostInfo& host) {
  return os << "(cpu: " << host.cpu_model << ", nproc: " << host.nproc
            << ", compiler: " << host.compiler << ", build: " << host.build_type
            << ", simd: " << host.simd_level << ")";
}

}  // namespace perfbench

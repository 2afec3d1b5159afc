#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

namespace perfbench {

/// Set-ups measured per run; their median is reported as setup_s.
inline constexpr std::size_t kSetupReps = 15;
/// Scratch directory (relative to the working directory) for CSVs,
/// journals, the hpacd socket and span dumps.
inline constexpr const char* kOutDir = ".bench_out";

enum class Workload { kExploreIact, kCampaignTafPerfo };

const char* workload_name(Workload workload);
std::optional<Workload> workload_from_name(const std::string& name);

/// Logical CPUs of this host.
std::size_t host_nproc();

/// Everything one benchmark run is parameterized by. Printed beside every
/// result so a number never travels without its configuration.
struct WorkloadConfig {
  Workload workload = Workload::kExploreIact;
  /// Orders the app sweeps / campaign plan and generates hpacd's query
  /// stream. The program under test never sees it.
  std::uint64_t seed = 1;
  /// Lower bound on the measured time: timed passes repeat until it is
  /// spent (at least one pass).
  double seconds = 10;
  bool trace = false;
  /// Explorer / Campaign / TuningService worker threads.
  std::size_t workers = 0;
  /// Closed-loop client connections of the trace run's served session. Each
  /// occupies two threads (the client and its server connection thread).
  std::size_t connections = 0;

  /// Defaults for the host: `nproc` workers and `nproc / 2` connections,
  /// so clients plus server connection threads fill the CPUs once.
  static WorkloadConfig for_host(Workload workload);

  /// Rejects more workers or connections than the host has CPUs, a zero
  /// of either, and a non-positive measuring time.
  bool isValid() const;
};

std::ostream& operator<<(std::ostream& os, const WorkloadConfig& config);

/// Host facts recorded beside every number.
struct HostInfo {
  std::string cpu_model;
  std::size_t nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string simd_level;
};

HostInfo host_info();
std::ostream& operator<<(std::ostream& os, const HostInfo& host);

}  // namespace perfbench

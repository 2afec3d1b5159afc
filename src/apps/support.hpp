#pragma once

#include <cstdint>

#include "approx/region.hpp"
#include "offload/device.hpp"
#include "offload/target.hpp"
#include "pragma/spec.hpp"
#include "sim/launch.hpp"

namespace hpac::apps {

/// `commit_extents` for the ubiquitous dense-row commit layout: item i's
/// commit writes the `dims` consecutive elements at `target[i * dims]`.
/// The container is captured by reference, so ping-pong buffers that are
/// swapped between launches (leukocyte) resolve to the live buffer at
/// audit time. Bindings with a non-row shape (several arrays, commuting
/// counters) set `commit_extents` directly.
template <typename T>
void bind_row_commit_extents(approx::RegionBinding& binding, const std::vector<T>& target,
                             int dims) {
  binding.commit_extents = [&target, dims](std::uint64_t item,
                                           approx::audit::ExtentSink& sink) {
    sink.writes(target.data() + item * static_cast<std::size_t>(dims),
                static_cast<std::size_t>(dims) * sizeof(T));
  };
}

/// Accumulate the counters of one kernel launch into an aggregate (apps
/// launch their approximated kernels many times per run).
inline void accumulate_stats(approx::ExecStats& total, const approx::ExecStats& part) {
  total.add_counters(part);
  if (part.shared_bytes_per_block > total.shared_bytes_per_block) {
    total.shared_bytes_per_block = part.shared_bytes_per_block;
  }
  if (part.host_shards > total.host_shards) total.host_shards = part.host_shards;
  if (part.simd_level > total.simd_level) total.simd_level = part.simd_level;
  total.conflicts.insert(total.conflicts.end(), part.conflicts.begin(), part.conflicts.end());
}

/// Launch one kernel: adds its modeled time to the device timeline and,
/// when `aggregate` is given, folds the approximation counters into it.
inline approx::RegionReport launch_kernel(offload::Device& device,
                                          const approx::RegionExecutor& executor,
                                          const pragma::ApproxSpec& spec,
                                          const approx::RegionBinding& binding,
                                          std::uint64_t n, const sim::LaunchConfig& launch,
                                          approx::ExecStats* aggregate = nullptr) {
  approx::RegionReport report =
      offload::target_parallel_for(device, executor, spec, binding, n, launch);
  if (aggregate != nullptr) accumulate_stats(*aggregate, report.stats);
  return report;
}

/// The accurate-only spec used for un-annotated kernels.
inline const pragma::ApproxSpec& accurate_spec() {
  static const pragma::ApproxSpec spec;
  return spec;
}

}  // namespace hpac::apps

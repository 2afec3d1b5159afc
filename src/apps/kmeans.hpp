#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "harness/benchmark.hpp"

namespace hpac::apps {

/// K-Means (Rodinia): iterative Lloyd clustering (Table 1).
///
/// The approximated kernel computes each observation's distance to the
/// current centroids and assigns the nearest cluster. Memoized assignments
/// herd observations into their previous cluster, which accelerates the
/// convergence criterion (no observation changed cluster) — the paper's
/// Figure 12c shows time speedup is almost entirely convergence speedup.
///
/// QoI: the cluster id of each observation; error metric: MCR.
class KMeans : public harness::Benchmark {
 public:
  struct Params {
    std::uint64_t num_points = 1u << 15;
    int dims = 8;
    int clusters = 8;
    int max_iterations = 60;
    std::uint64_t seed = 0x5eedu;
  };

  KMeans();
  explicit KMeans(Params params);

  std::string name() const override { return "kmeans"; }
  harness::ErrorMetric error_metric() const override { return harness::ErrorMetric::kMcr; }
  std::uint64_t default_items_per_thread() const override { return 1; }

  harness::RunOutput run(const pragma::ApproxSpec& spec, std::uint64_t items_per_thread,
                         const sim::DeviceConfig& device) override;

  /// Forks share the immutable observations; run() keeps no other state.
  std::unique_ptr<harness::Benchmark> fork() const override {
    return std::make_unique<KMeans>(*this);
  }

  const Params& params() const { return params_; }

 private:
  Params params_;
  std::shared_ptr<const std::vector<double>> points_;  ///< num_points x dims, row-major
};

}  // namespace hpac::apps

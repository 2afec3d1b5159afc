#include "apps/kmeans.hpp"

#include <atomic>
#include <cmath>
#include <cstring>

#include "apps/simd_kernels.hpp"
#include "apps/support.hpp"
#include "common/rng.hpp"

namespace hpac::apps {

KMeans::KMeans() : KMeans(Params{}) {}

KMeans::KMeans(Params params) : params_(params) {
  Xoshiro256 rng(params_.seed);
  const auto n = params_.num_points;
  const int d = params_.dims;
  const int k = params_.clusters;
  // Gaussian mixture: k well-separated components with unit spread, so the
  // accurate clustering is meaningful and misclassification is measurable.
  // Observations arrive in long same-component runs, as in real data files
  // recorded source-by-source — the temporal locality TAF exploits.
  std::vector<double> centers(static_cast<std::size_t>(k) * d);
  for (auto& c : centers) c = rng.uniform(-10.0, 10.0);
  std::vector<double> points(n * static_cast<std::size_t>(d));
  int comp = 0;
  std::uint64_t run_left = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (run_left == 0) {
      comp = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(k)));
      run_left = 2048 + rng.uniform_index(6144);
    }
    --run_left;
    for (int j = 0; j < d; ++j) {
      points[i * d + j] = centers[static_cast<std::size_t>(comp) * d + j] + rng.normal();
    }
  }
  points_ = std::make_shared<const std::vector<double>>(std::move(points));
}

harness::RunOutput KMeans::run(const pragma::ApproxSpec& spec, std::uint64_t items_per_thread,
                               const sim::DeviceConfig& device) {
  const std::uint64_t n = params_.num_points;
  const int d = params_.dims;
  const int k = params_.clusters;
  const std::vector<double>& points = *points_;

  offload::Device dev(device);
  approx::RegionExecutor executor(device);

  std::vector<double> centroids(static_cast<std::size_t>(k) * d, 0.0);
  // Rodinia-style initialization: the first k observations seed the centroids.
  for (int c = 0; c < k; ++c) {
    for (int j = 0; j < d; ++j) {
      centroids[static_cast<std::size_t>(c) * d + j] = points[static_cast<std::size_t>(c) * d + j];
    }
  }
  std::vector<int> membership(n, -1);

  harness::RunOutput output;
  offload::MapScope map_points(dev, n * static_cast<std::uint64_t>(d) * sizeof(double),
                               offload::MapDir::kTo);
  offload::MapScope map_membership(dev, n * sizeof(int), offload::MapDir::kFrom);

  approx::RegionBinding binding;
  binding.name = "kmeans.assign";
  binding.in_dims = d;  // the observation's features — the iACT key
  binding.out_dims = 1; // assigned cluster id
  binding.in_bytes = static_cast<std::uint32_t>(d) * sizeof(double);
  binding.out_bytes = sizeof(int);
  const auto gather_one = [&points, d](std::uint64_t i, double* in) {
    std::memcpy(in, points.data() + i * static_cast<std::uint64_t>(d),
                static_cast<std::size_t>(d) * sizeof(double));
  };
  const auto assign_one = [&points, d, k, &centroids](std::uint64_t i, double* out) {
    int best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (int c = 0; c < k; ++c) {
      double dist = 0;
      for (int j = 0; j < d; ++j) {
        const double diff = points[i * d + j] - centroids[static_cast<std::size_t>(c) * d + j];
        dist += diff * diff;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best = c;
      }
    }
    out[0] = static_cast<double>(best);
  };
  bind_gather(binding, gather_one);
  bind_accurate(binding, assign_one);
  // Vector fast path (lanes = centroids), resolved per run() like
  // blackscholes'. It reads a dimension-major copy of the centroids that
  // the Lloyd loop below refreshes once per iteration, before the launch
  // — never inside the callback, which concurrent team shards share. Its
  // per-lane operation order is assign_one's, so memberships are
  // bit-identical at every dispatch level.
  const kernels::KmeansAssignFn assign_batch = kernels::kmeans_assign_fn();
  std::vector<double> centroids_t;
  if (assign_batch != nullptr) {
    centroids_t.resize(centroids.size());
    binding.accurate_batch = [&points, d, k, assign_batch, &centroids_t](
                                 std::uint64_t first_item, sim::LaneMask lanes,
                                 std::span<const double>, std::span<double> out) {
      assign_batch(points.data() + first_item * static_cast<std::uint64_t>(d), d,
                   centroids_t.data(), k, lanes, out.data());
    };
  }
  bind_constant_cost(binding, 3.0 * d * k + 2.0 * k);

  // `changed` commutes (integer adds), so commits of different items may
  // run on different executor shards; the atomic_ref makes that race-free
  // without affecting the count, while the plain storage lets the audit
  // layer snapshot/restore it as a commuting extent around differential
  // re-runs.
  alignas(8) std::uint64_t changed = 0;
  const auto commit_one = [&membership, &changed](std::uint64_t i, const double* out) {
    const int assigned = static_cast<int>(out[0]);
    if (membership[i] != assigned) {
      membership[i] = assigned;
      std::atomic_ref<std::uint64_t>(changed).fetch_add(1, std::memory_order_relaxed);
    }
  };
  bind_commit(binding, commit_one);
  binding.independent_items = true;  // membership[i] writes + commuting counter
  binding.commit_extents = [&membership, &changed](std::uint64_t i,
                                                   approx::audit::ExtentSink& sink) {
    sink.writes(membership.data() + i, sizeof(int));
    sink.commuting(&changed, sizeof(changed));
  };

  const sim::LaunchConfig launch =
      sim::launch_for_items_per_thread(n, items_per_thread, threads_per_team());

  int iterations = 0;
  for (; iterations < params_.max_iterations; ++iterations) {
    changed = 0;
    if (assign_batch != nullptr) {
      for (int c = 0; c < k; ++c) {
        for (int j = 0; j < d; ++j) {
          centroids_t[static_cast<std::size_t>(j) * k + c] =
              centroids[static_cast<std::size_t>(c) * d + j];
        }
      }
    }
    // The approximated kernel accounts for a few percent of the per-
    // iteration time (paper: 3.5%); the membership transfer back to the
    // host and the host-side centroid update dominate, which is why the
    // convergence criterion drives the end-to-end speedup.
    launch_kernel(dev, executor, spec, binding, n, launch, &output.stats);
    dev.record_dtoh(n * sizeof(int));

    // Host-side centroid update (reduction over all points).
    std::vector<double> sums(static_cast<std::size_t>(k) * d, 0.0);
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(k), 0);
    for (std::uint64_t i = 0; i < n; ++i) {
      const int c = membership[i];
      if (c < 0) continue;
      ++counts[static_cast<std::size_t>(c)];
      for (int j = 0; j < d; ++j) sums[static_cast<std::size_t>(c) * d + j] += points[i * d + j];
    }
    for (int c = 0; c < k; ++c) {
      if (counts[static_cast<std::size_t>(c)] == 0) continue;
      for (int j = 0; j < d; ++j) {
        centroids[static_cast<std::size_t>(c) * d + j] =
            sums[static_cast<std::size_t>(c) * d + j] /
            static_cast<double>(counts[static_cast<std::size_t>(c)]);
      }
    }
    dev.record_host(static_cast<double>(n) * d * 2.0 / 10e9);
    dev.record_htod(static_cast<std::uint64_t>(k) * static_cast<std::uint64_t>(d) *
                    sizeof(double));

    if (changed == 0) {
      ++iterations;
      break;
    }
  }

  output.timeline = dev.timeline();
  output.qoi_labels = std::move(membership);
  output.iterations = iterations;
  return output;
}

}  // namespace hpac::apps

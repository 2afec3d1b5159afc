// Tests of the SIMD dispatch shim (hpac::simd) and of the tree-wide
// bit-identity contract: every reachable dispatch level must produce
// byte-identical application QoI and sweep CSVs, because every vector
// kernel replicates its scalar reference's per-lane operation sequence.
// (The per-kernel property tests live next to their subjects:
// test_iact.cpp for the table scan, test_taf.cpp for the incremental
// RSD.) The CI dispatch matrix re-checks the same invariant across
// *processes* via HPAC_SIMD; these tests check it in-process via
// set_level, so a plain `ctest` run covers it on any host.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "apps/simd_kernels.hpp"
#include "approx/region.hpp"
#include "common/simd.hpp"
#include "harness/explorer.hpp"
#include "pragma/parser.hpp"
#include "sim/device.hpp"

using namespace hpac;

namespace {

/// Restores the process-wide dispatch level even on assertion failure.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : previous_(simd::active_level()) {}
  ~SimdLevelGuard() { simd::set_level(previous_); }

 private:
  simd::Level previous_;
};

std::vector<simd::Level> reachable_levels() {
  std::vector<simd::Level> levels{simd::Level::kOff};
  if (simd::max_runtime_level() >= simd::Level::kSse2) levels.push_back(simd::Level::kSse2);
  if (simd::max_runtime_level() >= simd::Level::kAvx2) levels.push_back(simd::Level::kAvx2);
  return levels;
}

}  // namespace

// --- shim behavior ----------------------------------------------------------

TEST(Simd, LevelNamesMatchEnvSpellings) {
  EXPECT_STREQ(simd::level_name(simd::Level::kOff), "off");
  EXPECT_STREQ(simd::level_name(simd::Level::kSse2), "sse2");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
}

TEST(Simd, DispatchInfoIsInternallyConsistent) {
  const simd::DispatchInfo info = simd::dispatch_info();
  EXPECT_LE(info.active, info.max_runtime);
  EXPECT_LE(info.max_runtime, info.max_compiled);
#if defined(__x86_64__) || defined(_M_X64)
  // SSE2 is the x86-64 baseline: always compiled, always available.
  EXPECT_GE(info.max_compiled, simd::Level::kSse2);
  EXPECT_GE(info.max_runtime, simd::Level::kSse2);
#endif
}

TEST(Simd, DescribeNamesTheLevelAndAnUnrecognisedValue) {
  simd::DispatchInfo info;
  info.active = simd::Level::kSse2;
  EXPECT_EQ(simd::describe(info), "simd: sse2");
  info.env_unrecognised = "avx";
  EXPECT_EQ(simd::describe(info),
            "simd: sse2 (HPAC_SIMD=\"avx\" not recognised; using the widest level)");
}

TEST(Simd, SetLevelClampsToRuntimeMaxAndRoundTrips) {
  SimdLevelGuard guard;
  // Asking for more than the host has degrades to the widest available.
  const simd::Level installed = simd::set_level(simd::Level::kAvx2);
  EXPECT_LE(installed, simd::max_runtime_level());
  EXPECT_EQ(installed, simd::active_level());
  // kOff is always installable exactly.
  EXPECT_EQ(simd::set_level(simd::Level::kOff), simd::Level::kOff);
  EXPECT_EQ(simd::active_level(), simd::Level::kOff);
}

TEST(Simd, KernelDispatchFollowsLevel) {
  SimdLevelGuard guard;
  simd::set_level(simd::Level::kOff);
  EXPECT_EQ(apps::kernels::blackscholes_batch_fn(), nullptr);
  EXPECT_EQ(apps::kernels::binomial_induct_fn(), nullptr);
  EXPECT_EQ(apps::kernels::kmeans_assign_fn(), nullptr);
  const simd::Level best = simd::set_level(simd::max_runtime_level());
  if (best >= simd::Level::kSse2) {
    EXPECT_NE(apps::kernels::blackscholes_batch_fn(), nullptr);
    EXPECT_NE(apps::kernels::binomial_induct_fn(), nullptr);
    EXPECT_NE(apps::kernels::kmeans_assign_fn(), nullptr);
  }
}

// --- kmeans nearest-centroid kernel -----------------------------------------

namespace {

/// The kmeans app's scalar assignment loop over a row-major centroid
/// matrix: ascending dimensions, strict `<` in ascending centroid order.
int scalar_nearest(const double* point, const std::vector<double>& centroids, int dims, int k) {
  int best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (int c = 0; c < k; ++c) {
    double dist = 0;
    for (int j = 0; j < dims; ++j) {
      const double diff = point[j] - centroids[static_cast<std::size_t>(c) * dims + j];
      dist += diff * diff;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  return best;
}

}  // namespace

// Every kernel (each reachable ISA) against the scalar loop: k 1..9 (below,
// at and off multiples of the vector width), observations narrower and
// wider than the kernel's held dimensions, duplicate centroids (the first
// must win), tie-rich quantized data, and observations with a NaN
// coordinate (no centroid is ever nearer, so the best stays 0). Masks have
// holes, and each observation buffer ends at the mask's highest lane, so
// a sanitizer build flags any read past it. Lanes outside the mask must
// not be written.
TEST(Simd, KmeansAssignKernelMatchesScalarLoop) {
  SimdLevelGuard guard;
  const std::vector<sim::LaneMask> masks{
      ~sim::LaneMask{0} & ~(sim::LaneMask{1} << 9),  // one hole, top lane 63
      sim::LaneMask{0x0000'0026'8421'0c35},          // sparse, top lane 37
      sim::LaneMask{1} << 41,                        // one lane
      sim::full_mask(35) & ~sim::full_mask(16),      // lanes 16..34
      sim::full_mask(6)};                            // fewer lanes than a step
  for (const simd::Level level : reachable_levels()) {
    if (level == simd::Level::kOff) continue;
    simd::set_level(level);
    const apps::kernels::KmeansAssignFn assign = apps::kernels::kmeans_assign_fn();
    ASSERT_NE(assign, nullptr) << simd::level_name(level);
    for (const int dims : {1, 3, 8, 17}) {
      for (int k = 1; k <= 9; ++k) {
        for (const sim::LaneMask mask : masks) {
          std::uint64_t state = static_cast<std::uint64_t>(dims * 100 + k) ^ mask;
          const auto quantized = [&state] {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            return 0.5 * static_cast<double>((state >> 33) % 7);
          };
          std::vector<double> centroids(static_cast<std::size_t>(k) * dims);
          for (auto& v : centroids) v = quantized();
          // Centroid k/2 sits apart from the rest and centroid k-1
          // duplicates it: observations on it tie at distance 0, the lower
          // index wins.
          centroids[static_cast<std::size_t>(k / 2) * dims] = 100.0;
          for (int j = 0; j < dims; ++j) {
            centroids[static_cast<std::size_t>(k - 1) * dims + j] =
                centroids[static_cast<std::size_t>(k / 2) * dims + j];
          }
          std::vector<double> transposed(centroids.size());
          for (int c = 0; c < k; ++c) {
            for (int j = 0; j < dims; ++j) {
              transposed[static_cast<std::size_t>(j) * k + c] =
                  centroids[static_cast<std::size_t>(c) * dims + j];
            }
          }
          const int lanes = std::bit_width(mask);
          std::vector<double> points(static_cast<std::size_t>(lanes) * dims);
          for (auto& v : points) v = quantized();
          // Lanes sitting exactly on the duplicated centroid, and lanes
          // with a NaN coordinate.
          for (const int lane : {2, 33, 41}) {
            if (lane >= lanes) continue;
            for (int j = 0; j < dims; ++j) {
              points[static_cast<std::size_t>(lane) * dims + j] =
                  centroids[static_cast<std::size_t>(k / 2) * dims + j];
            }
          }
          for (const int lane : {5, 18, 40}) {
            if (lane >= lanes) continue;
            points[static_cast<std::size_t>(lane) * dims + static_cast<std::size_t>(dims / 2)] =
                std::numeric_limits<double>::quiet_NaN();
          }
          std::vector<double> out(64, -1.0);
          assign(points.data(), dims, transposed.data(), k, mask, out.data());
          for (int lane = 0; lane < 64; ++lane) {
            const double got = out[static_cast<std::size_t>(lane)];
            if (!sim::lane_active(mask, lane)) {
              ASSERT_EQ(got, -1.0) << "lane " << lane << " outside the mask";
              continue;
            }
            const double* point = points.data() + static_cast<std::size_t>(lane) * dims;
            ASSERT_EQ(got, static_cast<double>(scalar_nearest(point, centroids, dims, k)))
                << simd::level_name(level) << " dims " << dims << " k " << k << " mask " << mask
                << " lane " << lane;
            if (lane == 2 || lane == 33 || lane == 41) {
              ASSERT_EQ(got, static_cast<double>(k / 2));
            }
            if (lane == 5 || lane == 18 || lane == 40) {
              ASSERT_EQ(got, 0.0);
            }
          }
        }
      }
    }
  }
}

// --- observability ----------------------------------------------------------

TEST(Simd, ExecStatsReportTheActiveDispatchLevel) {
  SimdLevelGuard guard;
  std::vector<double> out(1u << 10, 0.0);
  approx::RegionBinding binding;
  binding.in_dims = 0;
  binding.out_dims = 1;
  approx::bind_accurate(binding, [](std::uint64_t i, double* o) { o[0] = static_cast<double>(i); });
  approx::bind_constant_cost(binding, 10.0);
  approx::bind_commit(binding, [&out](std::uint64_t i, const double* o) { out[i] = o[0]; });
  for (const simd::Level level : reachable_levels()) {
    simd::set_level(level);
    approx::RegionExecutor executor(sim::v100());
    const sim::LaunchConfig launch = sim::launch_for_items_per_thread(out.size(), 8, 128);
    const approx::RegionReport report =
        executor.run(pragma::parse_approx("none"), binding, out.size(), launch);
    EXPECT_EQ(report.stats.simd_level, level) << simd::level_name(level);
  }
}

// --- cross-level bit-identity -----------------------------------------------

namespace {

/// QoI of one full app run at the given dispatch level. Apps resolve
/// their kernels per run(), so flipping the level between runs is enough.
std::vector<double> qoi_at_level(const std::string& app_name, const char* clause,
                                 simd::Level level) {
  simd::set_level(level);
  auto app = apps::make_benchmark(app_name);
  return app->run(pragma::parse_approx(clause), 8, sim::v100()).qoi;
}

}  // namespace

TEST(SimdParity, AppQoiBitIdenticalAcrossDispatchLevels) {
  SimdLevelGuard guard;
  // The apps with vector batch kernels, under both the plain accurate
  // path and the memo techniques that mix approximate answers in.
  for (const char* app : {"blackscholes", "binomial_options"}) {
    for (const char* clause : {"none", "memo(out:3:8:0.5) level(warp)"}) {
      const std::vector<double> reference = qoi_at_level(app, clause, simd::Level::kOff);
      for (const simd::Level level : reachable_levels()) {
        if (level == simd::Level::kOff) continue;
        const std::vector<double> vectored = qoi_at_level(app, clause, level);
        ASSERT_EQ(reference.size(), vectored.size());
        ASSERT_EQ(0, std::memcmp(reference.data(), vectored.data(),
                                 reference.size() * sizeof(double)))
            << app << " '" << clause << "' at " << simd::level_name(level);
      }
    }
  }
}

// kmeans reports its QoI as cluster labels (`qoi_labels`, with `qoi`
// empty), so it is compared on the labels and the Lloyd iteration count,
// under the accurate path and both memo techniques.
TEST(SimdParity, KmeansLabelsBitIdenticalAcrossDispatchLevels) {
  SimdLevelGuard guard;
  for (const char* clause :
       {"none", "memo(out:3:8:0.5) level(warp)", "memo(in:4:0.5:2) in(x) out(y)"}) {
    const auto run_at = [clause](simd::Level level) {
      simd::set_level(level);
      return apps::make_benchmark("kmeans")->run(pragma::parse_approx(clause), 8, sim::v100());
    };
    const harness::RunOutput reference = run_at(simd::Level::kOff);
    ASSERT_FALSE(reference.qoi_labels.empty());
    ASSERT_GT(reference.iterations, 0);
    for (const simd::Level level : reachable_levels()) {
      if (level == simd::Level::kOff) continue;
      const harness::RunOutput vectored = run_at(level);
      EXPECT_EQ(vectored.qoi_labels, reference.qoi_labels)
          << "'" << clause << "' at " << simd::level_name(level);
      EXPECT_EQ(vectored.iterations, reference.iterations)
          << "'" << clause << "' at " << simd::level_name(level);
    }
  }
}

namespace {

/// A small Explorer sweep serialized to CSV — the byte-identity contract
/// the harness layers rely on, exercised over the apps and techniques the
/// SIMD layer touches (iACT scan, TAF RSD, app batch kernels). lavamd's
/// mean-zero force outputs are the cancellation-heavy TAF case; kmeans,
/// lulesh and leukocyte run the iACT clause (batched probe scan, and the
/// kmeans kernel) only.
std::string sweep_csv_at_level(simd::Level level) {
  simd::set_level(level);
  harness::ResultDb db;
  const char* taf = "memo(out:3:8:0.5) level(warp)";
  const char* iact = "memo(in:4:0.5:2) in(x) out(y)";
  const std::vector<std::pair<const char*, std::vector<const char*>>> runs{
      {"blackscholes", {taf, iact}}, {"binomial_options", {taf, iact}},
      {"lavamd", {taf, iact}},       {"kmeans", {iact}},
      {"lulesh", {iact}},            {"leukocyte", {iact}}};
  for (const auto& [name, clauses] : runs) {
    auto app = apps::make_benchmark(name);
    harness::Explorer explorer(*app, sim::v100());
    for (const char* clause : clauses) explorer.run_config(pragma::parse_approx(clause), 8);
    for (const auto& record : explorer.db().records()) db.add(record);
  }
  std::ostringstream os;
  db.to_csv().write(os);
  return os.str();
}

}  // namespace

TEST(SimdParity, SweepCsvBytesInvariantAcrossDispatchLevels) {
  SimdLevelGuard guard;
  const std::string reference = sweep_csv_at_level(simd::Level::kOff);
  ASSERT_FALSE(reference.empty());
  for (const simd::Level level : reachable_levels()) {
    if (level == simd::Level::kOff) continue;
    EXPECT_EQ(sweep_csv_at_level(level), reference) << simd::level_name(level);
  }
}

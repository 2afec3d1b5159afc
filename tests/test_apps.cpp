// Tests for the seven reproduced benchmarks: workload determinism,
// accurate-path correctness against reference computations, QoI sanity
// and the per-app applicability rules the paper reports.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "apps/binomial.hpp"
#include "apps/blackscholes.hpp"
#include "apps/kmeans.hpp"
#include "apps/lavamd.hpp"
#include "apps/leukocyte.hpp"
#include "apps/lulesh.hpp"
#include "apps/minife.hpp"
#include "apps/registry.hpp"
#include "common/error.hpp"
#include "pragma/parser.hpp"
#include "sim/device.hpp"

using namespace hpac;
using namespace hpac::apps;

namespace {
const pragma::ApproxSpec kNone;
}

TEST(Registry, AllSevenBenchmarksConstruct) {
  const auto names = benchmark_names();
  EXPECT_EQ(names.size(), 7u);
  for (const auto& name : names) {
    auto bench = make_benchmark(name);
    EXPECT_EQ(bench->name(), name);
  }
  EXPECT_THROW(make_benchmark("doom"), ConfigError);
}

TEST(Blackscholes, CallPriceMatchesKnownValue) {
  // S=100, K=100, r=0.05, v=0.2, T=1: canonical BS call ~ 10.45.
  EXPECT_NEAR(Blackscholes::call_price(100, 100, 0.05, 0.2, 1.0), 10.45, 0.01);
}

TEST(Blackscholes, DeepInTheMoneyApproachesIntrinsic) {
  const double price = Blackscholes::call_price(100, 10, 0.01, 0.1, 0.5);
  EXPECT_NEAR(price, 100 - 10 * std::exp(-0.01 * 0.5), 0.1);
}

TEST(Blackscholes, AccurateRunIsSelfConsistent) {
  Blackscholes::Params params;
  params.num_options = 4096;
  Blackscholes app(params);
  const auto a = app.run(kNone, 1, sim::v100());
  const auto b = app.run(kNone, 8, sim::v100());
  EXPECT_EQ(a.qoi, b.qoi);  // launch geometry must not change results
  EXPECT_EQ(a.qoi.size(), 4096u);
}

TEST(Blackscholes, KernelOnlyTimingScope) {
  Blackscholes app;
  EXPECT_EQ(app.timing_scope(), harness::TimingScope::kKernelOnly);
}

TEST(Binomial, TreePriceConvergesToBlackScholes) {
  // European call via CRR converges to the closed form as steps grow.
  const double bs = Blackscholes::call_price(30, 30, 0.02, 0.3, 1.0);
  const double tree = BinomialOptions::tree_price(30, 30, 1.0, 256, 0.02, 0.3);
  EXPECT_NEAR(tree, bs, 0.05);
}

TEST(Binomial, DeterministicPortfolio) {
  BinomialOptions a, b;
  const auto ra = a.run(kNone, 1, sim::v100());
  const auto rb = b.run(kNone, 1, sim::v100());
  EXPECT_EQ(ra.qoi, rb.qoi);
}

TEST(Binomial, PricesAreNonNegative) {
  BinomialOptions::Params params;
  params.num_options = 2048;
  BinomialOptions app(params);
  const auto out = app.run(kNone, 1, sim::v100());
  for (double p : out.qoi) ASSERT_GE(p, 0.0);
}

TEST(Lulesh, BlastProducesShockAndConservesEnergySign) {
  Lulesh::Params params;
  params.num_elems = 2048;
  params.num_steps = 50;
  Lulesh app(params);
  const auto out = app.run(kNone, 1, sim::v100());
  ASSERT_EQ(out.qoi.size(), 1u);
  const double origin_energy = out.qoi[0];
  EXPECT_GT(origin_energy, 0.0);
  // The blast disperses: origin energy decays from its initial value.
  EXPECT_LT(origin_energy, params.blast_energy);
}

TEST(Lulesh, IniPerforationHurtsMoreThanFini) {
  // Paper Figure 7: the first (origin/blast) elements matter more, so
  // dropping them (ini) is costlier than dropping the far field (fini).
  Lulesh::Params params;
  params.num_elems = 2048;
  params.num_steps = 50;
  Lulesh accurate_app(params);
  const auto accurate = accurate_app.run(kNone, 1, sim::v100());

  Lulesh ini_app(params);
  const auto ini = ini_app.run(pragma::parse_approx("perfo(ini:0.3)"), 1, sim::v100());
  Lulesh fini_app(params);
  const auto fini = fini_app.run(pragma::parse_approx("perfo(fini:0.3)"), 1, sim::v100());

  const double err_ini = std::abs(ini.qoi[0] - accurate.qoi[0]) / accurate.qoi[0];
  const double err_fini = std::abs(fini.qoi[0] - accurate.qoi[0]) / accurate.qoi[0];
  EXPECT_GT(err_ini, err_fini);
}

TEST(Leukocyte, CentroidsTrackGeneratedCells) {
  Leukocyte::Params params;
  params.num_cells = 4;
  params.iterations = 20;
  Leukocyte app(params);
  const auto out = app.run(kNone, 1, sim::v100());
  ASSERT_EQ(out.qoi.size(), 8u);
  // Intensity centroids should land near the patch center where the
  // synthetic cells were drawn.
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(out.qoi[c * 2 + 0], params.patch / 2.0, 4.0);
    EXPECT_NEAR(out.qoi[c * 2 + 1], params.patch / 2.0, 4.0);
  }
}

TEST(Leukocyte, PixelCountMatchesGeometry) {
  Leukocyte app;
  EXPECT_EQ(app.num_pixels(),
            static_cast<std::uint64_t>(app.params().num_cells) * app.params().patch *
                app.params().patch);
}

TEST(MiniFe, BaselineCgConverges) {
  MiniFe::Params params;
  params.grid = 8;
  MiniFe app(params);
  const auto out = app.run(kNone, 1, sim::v100());
  ASSERT_EQ(out.qoi.size(), 1u);
  // Residual norm far below the initial ||b|| = sqrt(512).
  EXPECT_LT(out.qoi[0], 1e-4);
  EXPECT_GT(out.iterations, 2.0);
}

TEST(MiniFe, TafCorruptsConvergence) {
  // Paper §4.1: approximating SpMV propagates errors through CG and the
  // residual explodes (593%..3.4e22%).
  MiniFe::Params params;
  params.grid = 8;
  MiniFe accurate_app(params);
  const auto accurate = accurate_app.run(kNone, 1, sim::v100());
  MiniFe approx_app(params);
  const auto approx =
      approx_app.run(pragma::parse_approx("memo(out:2:16:5) level(warp)"), 16, sim::v100());
  EXPECT_GT(approx.qoi[0], accurate.qoi[0] * 100.0);
}

TEST(MiniFe, IactIsNotApplicable) {
  MiniFe::Params params;
  params.grid = 8;
  MiniFe app(params);
  EXPECT_THROW(
      app.run(pragma::parse_approx("memo(in:4:0.5:2) in(row) out(y)"), 8, sim::v100()),
      ConfigError);
}

TEST(LavaMd, PotentialIsPositiveAndDeterministic) {
  LavaMd::Params params;
  params.boxes_per_dim = 3;
  params.particles_per_box = 8;
  LavaMd app(params);
  const auto a = app.run(kNone, 1, sim::v100());
  const auto b = app.run(kNone, 1, sim::v100());
  EXPECT_EQ(a.qoi, b.qoi);
  // QoI layout: (potential, |f|, x, y, z) per particle.
  ASSERT_EQ(a.qoi.size(), app.num_particles() * 5);
  for (std::size_t i = 0; i < a.qoi.size(); i += 5) {
    EXPECT_GT(a.qoi[i], 0.0);       // potential
    EXPECT_GE(a.qoi[i + 1], 0.0);   // force magnitude
  }
}

TEST(LavaMd, LaunchGeometryDoesNotChangePhysics) {
  LavaMd::Params params;
  params.boxes_per_dim = 3;
  params.particles_per_box = 8;
  LavaMd app(params);
  const auto a = app.run(kNone, 1, sim::v100());
  const auto b = app.run(kNone, 4, sim::mi250x());
  ASSERT_EQ(a.qoi.size(), b.qoi.size());
  for (std::size_t i = 0; i < a.qoi.size(); ++i) ASSERT_NEAR(a.qoi[i], b.qoi[i], 1e-12);
}

TEST(KMeans, BaselineConvergesAndLabelsEveryPoint) {
  KMeans::Params params;
  params.num_points = 4096;
  KMeans app(params);
  const auto out = app.run(kNone, 1, sim::v100());
  EXPECT_LT(out.iterations, params.max_iterations);
  ASSERT_EQ(out.qoi_labels.size(), params.num_points);
  for (int label : out.qoi_labels) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, params.clusters);
  }
}

TEST(KMeans, UsesMisclassificationRate) {
  KMeans app;
  EXPECT_EQ(app.error_metric(), harness::ErrorMetric::kMcr);
}

TEST(KMeans, ApproximationAcceleratesConvergence) {
  // Figure 12c: memoized assignments herd observations and the benchmark
  // converges in fewer iterations.
  KMeans::Params params;
  params.num_points = 8192;
  KMeans accurate_app(params);
  const auto accurate = accurate_app.run(kNone, 1, sim::v100());
  KMeans approx_app(params);
  const auto approx =
      approx_app.run(pragma::parse_approx("memo(out:2:64:1.5) level(warp)"), 64, sim::v100());
  EXPECT_LE(approx.iterations, accurate.iterations);
}

class AppSmokeSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(AppSmokeSweep, EveryBenchmarkRunsEveryTechnique) {
  auto bench = make_benchmark(GetParam());
  for (const char* clause : {"perfo(fini:0.2)", "memo(out:2:8:1.5) level(warp)"}) {
    const auto out = bench->run(pragma::parse_approx(clause), 8, sim::v100());
    EXPECT_GT(out.timeline.end_to_end_seconds(), 0.0) << clause;
    EXPECT_GT(out.stats.region_invocations, 0u) << clause;
  }
}

namespace {

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_bytes(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_byte_equal(const harness::RunOutput& a, const harness::RunOutput& b,
                       const std::string& what) {
  EXPECT_TRUE(same_bytes(a.qoi, b.qoi)) << what;
  EXPECT_TRUE(same_bytes(a.qoi_labels, b.qoi_labels)) << what;
  EXPECT_TRUE(same_bytes(a.iterations, b.iterations)) << what;
  EXPECT_TRUE(same_bytes(a.timeline.htod_seconds, b.timeline.htod_seconds)) << what;
  EXPECT_TRUE(same_bytes(a.timeline.dtoh_seconds, b.timeline.dtoh_seconds)) << what;
  EXPECT_TRUE(same_bytes(a.timeline.kernel_seconds, b.timeline.kernel_seconds)) << what;
  EXPECT_TRUE(same_bytes(a.timeline.host_seconds, b.timeline.host_seconds)) << what;
  const approx::ExecStats& x = a.stats;
  const approx::ExecStats& y = b.stats;
  EXPECT_EQ(x.region_invocations, y.region_invocations) << what;
  EXPECT_EQ(x.accurate_items, y.accurate_items) << what;
  EXPECT_EQ(x.approx_items, y.approx_items) << what;
  EXPECT_EQ(x.skipped_items, y.skipped_items) << what;
  EXPECT_EQ(x.forced_approx, y.forced_approx) << what;
  EXPECT_EQ(x.forced_accurate, y.forced_accurate) << what;
  EXPECT_EQ(x.iact_hits, y.iact_hits) << what;
  EXPECT_EQ(x.taf_stable_entries, y.taf_stable_entries) << what;
  EXPECT_EQ(x.shared_bytes_per_block, y.shared_bytes_per_block) << what;
  EXPECT_EQ(x.host_shards, y.host_shards) << what;
  EXPECT_EQ(x.simd_level, y.simd_level) << what;
  EXPECT_EQ(x.conflicts.size(), y.conflicts.size()) << what;
}

}  // namespace

TEST_P(AppSmokeSweep, ForkOfARunAppMatchesItsSource) {
  // Campaign helpers fork a pair's app while other participants run
  // theirs, and blackscholes/kmeans forks share their inputs with the
  // source: neither the history of the source nor the fork's own runs may
  // change a single output byte.
  auto source = make_benchmark(GetParam());
  for (const char* clause : {"memo(out:2:8:1.5) level(warp)", "perfo(fini:0.2)"}) {
    const pragma::ApproxSpec spec = pragma::parse_approx(clause);
    const harness::RunOutput before = source->run(spec, 8, sim::v100());
    const auto fork = source->fork();
    ASSERT_NE(fork, nullptr);
    expect_byte_equal(before, fork->run(spec, 8, sim::v100()), std::string("fork ") + clause);
    expect_byte_equal(before, source->run(spec, 8, sim::v100()),
                      std::string("source after fork ran ") + clause);
  }
}

INSTANTIATE_TEST_SUITE_P(Table1, AppSmokeSweep,
                         ::testing::Values("lulesh", "leukocyte", "binomial_options",
                                           "minife", "blackscholes", "lavamd", "kmeans"));

TEST(Lulesh, TotalEnergyApproximatelyConserved) {
  // The staggered scheme should roughly conserve internal + kinetic
  // energy over a short accurate run; a broken integrator would not.
  Lulesh::Params params;
  params.num_elems = 1024;
  params.num_steps = 30;
  Lulesh app(params);
  const auto out = app.run(kNone, 1, sim::v100());
  // Origin energy decayed but remains a sizeable fraction of the blast.
  EXPECT_GT(out.qoi[0], params.blast_energy * 0.05);
  EXPECT_LT(out.qoi[0], params.blast_energy);
}

TEST(Lulesh, PerforationLeavesPerforatedElementsStale) {
  Lulesh::Params params;
  params.num_elems = 1024;
  params.num_steps = 10;
  Lulesh app(params);
  const auto out = app.run(pragma::parse_approx("perfo(large:64)"), 1, sim::v100());
  // Skipping ~98% of force work still yields finite, positive energy.
  EXPECT_TRUE(std::isfinite(out.qoi[0]));
  EXPECT_GT(out.qoi[0], 0.0);
}

TEST(Binomial, ResonantStrideYieldsLowTafError) {
  // When the grid stride is a multiple of the 64-contract tiling period,
  // each thread re-prices near-identical contracts: TAF errors collapse
  // to the jitter scale (the dataset-redundancy mechanism of §4.1).
  BinomialOptions app;
  const auto accurate = app.run(kNone, 1, sim::v100());
  BinomialOptions approx_app;
  const auto approx = approx_app.run(
      pragma::parse_approx("memo(out:1:64:1.5) level(team) out(p)"), 16, sim::v100());
  double mape = 0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < accurate.qoi.size(); ++i) {
    if (accurate.qoi[i] == 0.0) continue;
    mape += std::abs(accurate.qoi[i] - approx.qoi[i]) / accurate.qoi[i];
    ++counted;
  }
  mape = 100.0 * mape / static_cast<double>(counted);
  EXPECT_LT(mape, 10.0);
}

TEST(KMeans, PerforationHerdsButConverges) {
  KMeans::Params params;
  params.num_points = 4096;
  KMeans app(params);
  const auto out = app.run(pragma::parse_approx("perfo(small:2)"), 8, sim::v100());
  EXPECT_LE(out.iterations, params.max_iterations);
  for (int label : out.qoi_labels) ASSERT_GE(label, -1);
}

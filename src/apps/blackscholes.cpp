#include "apps/blackscholes.hpp"

#include <cmath>

#include "apps/simd_kernels.hpp"
#include "apps/support.hpp"
#include "common/rng.hpp"

namespace hpac::apps {

namespace {
/// Cumulative normal distribution (Abramowitz & Stegun 7.1.26 polynomial),
/// the same approximation the PARSEC kernel uses.
double cnd(double d) {
  const double a1 = 0.31938153, a2 = -0.356563782, a3 = 1.781477937, a4 = -1.821255978,
               a5 = 1.330274429;
  const double k = 1.0 / (1.0 + 0.2316419 * std::abs(d));
  double c = 1.0 - 1.0 / std::sqrt(2.0 * M_PI) * std::exp(-0.5 * d * d) *
                       (a1 * k + a2 * k * k + a3 * k * k * k + a4 * k * k * k * k +
                        a5 * k * k * k * k * k);
  return d < 0 ? 1.0 - c : c;
}
}  // namespace

double Blackscholes::call_price(double spot, double strike, double rate, double volatility,
                                double expiry) {
  const double sqrt_t = std::sqrt(expiry);
  const double d1 =
      (std::log(spot / strike) + (rate + 0.5 * volatility * volatility) * expiry) /
      (volatility * sqrt_t);
  const double d2 = d1 - volatility * sqrt_t;
  return spot * cnd(d1) - strike * std::exp(-rate * expiry) * cnd(d2);
}

Blackscholes::Blackscholes() : Blackscholes(Params{}) {}

Blackscholes::Blackscholes(Params params) : params_(params) {
  Xoshiro256 rng(params_.seed);
  const std::uint64_t unique = params_.unique_options;
  std::vector<double> us(unique), uk(unique), ur(unique), uv(unique), ut(unique);
  for (std::uint64_t i = 0; i < unique; ++i) {
    us[i] = rng.uniform(5.0, 100.0);
    uk[i] = rng.uniform(5.0, 100.0);
    ur[i] = rng.uniform(0.01, 0.05);
    uv[i] = rng.uniform(0.05, 0.65);
    ut[i] = rng.uniform(0.1, 1.0);
  }
  const std::uint64_t n = params_.num_options;
  Portfolio portfolio;
  portfolio.spot.resize(n);
  portfolio.strike.resize(n);
  portfolio.rate.resize(n);
  portfolio.volatility.resize(n);
  portfolio.expiry.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t u = i % unique;  // PARSEC-style tiling of distinct rows
    portfolio.spot[i] = us[u];
    portfolio.strike[i] = uk[u];
    portfolio.rate[i] = ur[u];
    portfolio.volatility[i] = uv[u];
    portfolio.expiry[i] = ut[u];
  }
  portfolio_ = std::make_shared<const Portfolio>(std::move(portfolio));
}

harness::RunOutput Blackscholes::run(const pragma::ApproxSpec& spec,
                                     std::uint64_t items_per_thread,
                                     const sim::DeviceConfig& device) {
  const std::uint64_t n = params_.num_options;
  const Portfolio& in = *portfolio_;
  offload::Device dev(device);
  approx::RegionExecutor executor(device);

  // Host-side allocation dominates the original benchmark's runtime; model
  // it as memory-bandwidth-bound host work over the five input arrays.
  const double host_alloc_bytes = static_cast<double>(n) * 6 * sizeof(double);
  dev.record_host(host_alloc_bytes / 8e9 + 2e-3);

  std::vector<double> prices(n, 0.0);

  harness::RunOutput output;
  {
    offload::MapScope map_in(dev, n * 5 * sizeof(double), offload::MapDir::kTo);
    offload::MapScope map_out(dev, n * sizeof(double), offload::MapDir::kFrom);

    approx::RegionBinding binding;
    binding.name = "blackscholes.price";
    binding.in_dims = 5;
    binding.out_dims = 1;
    binding.in_bytes = 5 * sizeof(double);
    binding.out_bytes = sizeof(double);
    const auto gather_one = [&in](std::uint64_t i, double* row) {
      row[0] = in.spot[i];
      row[1] = in.strike[i];
      row[2] = in.rate[i];
      row[3] = in.volatility[i];
      row[4] = in.expiry[i];
    };
    const auto price_one = [&in](std::uint64_t i, double* out) {
      out[0] = call_price(in.spot[i], in.strike[i], in.rate[i], in.volatility[i], in.expiry[i]);
    };
    const auto commit_one = [&prices](std::uint64_t i, const double* out) {
      prices[i] = out[0];
    };
    bind_gather(binding, gather_one);
    bind_accurate(binding, price_one);
    // Vector fast path over the warp's active lanes (lanes = option
    // contracts), resolved per run() so HPAC_SIMD / simd::set_level
    // changes take effect. The kernel prices each packed contract with
    // call_price's exact operation sequence, so prices are bit-identical
    // to the per-item price_one path above and sweep CSVs are
    // dispatch-invariant.
    if (const kernels::BlackscholesBatchFn batch = kernels::blackscholes_batch_fn()) {
      binding.accurate_batch = [&in, batch](std::uint64_t first_item, sim::LaneMask lanes,
                                            std::span<const double>, std::span<double> out) {
        // Only the first `count` slots are written (no per-warp fill);
        // returning on an empty mask keeps the kernel off slots no lane
        // wrote, which is what gcc's -Wmaybe-uninitialized needs to see.
        double s[64], k[64], r[64], v[64], t[64], p[64];
        int lane_of[64];
        int count = 0;
        sim::for_each_lane(lanes, [&](int lane) {
          const std::uint64_t i = first_item + static_cast<std::uint64_t>(lane);
          s[count] = in.spot[i];
          k[count] = in.strike[i];
          r[count] = in.rate[i];
          v[count] = in.volatility[i];
          t[count] = in.expiry[i];
          lane_of[count] = lane;
          ++count;
        });
        if (count == 0) return;
        batch(s, k, r, v, t, p, count);
        for (int j = 0; j < count; ++j) out[static_cast<std::size_t>(lane_of[j])] = p[j];
      };
    }
    // log, exp, sqrt, the CND polynomial twice: ~60 floating-point
    // operations plus two special functions.
    bind_constant_cost(binding, 180.0);
    bind_commit(binding, commit_one);
    binding.independent_items = true;  // each item touches only prices[i]
    bind_row_commit_extents(binding, prices, 1);
    // Read extents too: the five per-item input rows are disjoint from the
    // committed prices, which the auditor's read/write check confirms.
    binding.read_extents = [&in](std::uint64_t i, approx::audit::ExtentSink& sink) {
      sink.reads(in.spot.data() + i, sizeof(double));
      sink.reads(in.strike.data() + i, sizeof(double));
      sink.reads(in.rate.data() + i, sizeof(double));
      sink.reads(in.volatility.data() + i, sizeof(double));
      sink.reads(in.expiry.data() + i, sizeof(double));
    };

    const sim::LaunchConfig launch =
        sim::launch_for_items_per_thread(n, items_per_thread, threads_per_team());
    launch_kernel(dev, executor, spec, binding, n, launch, &output.stats);
  }

  output.timeline = dev.timeline();
  output.qoi = std::move(prices);
  return output;
}

}  // namespace hpac::apps

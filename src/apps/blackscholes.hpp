#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "harness/benchmark.hpp"

namespace hpac::apps {

/// Blackscholes (PARSEC): analytic European option pricing (Table 1).
///
/// The portfolio mirrors the PARSEC input structure: a small set of
/// distinct options tiled to the full problem size, which is the data
/// redundancy memoization exploits. QoI: the computed call prices (MAPE).
///
/// The paper notes 99% of the benchmark's runtime is host allocation and
/// transfers, so §4.1 reports *kernel-only* performance; `timing_scope()`
/// encodes that.
class Blackscholes : public harness::Benchmark {
 public:
  struct Params {
    std::uint64_t num_options = 1u << 18;
    std::uint64_t unique_options = 1024;  ///< distinct rows tiled across the input
    std::uint64_t seed = 0x9d5cu;
  };

  Blackscholes();
  explicit Blackscholes(Params params);

  std::string name() const override { return "blackscholes"; }
  harness::TimingScope timing_scope() const override {
    return harness::TimingScope::kKernelOnly;
  }
  std::uint64_t default_items_per_thread() const override { return 1; }

  harness::RunOutput run(const pragma::ApproxSpec& spec, std::uint64_t items_per_thread,
                         const sim::DeviceConfig& device) override;

  /// Forks share the immutable portfolio; run() keeps no other state.
  std::unique_ptr<harness::Benchmark> fork() const override {
    return std::make_unique<Blackscholes>(*this);
  }

  /// Reference closed-form call price (used by unit tests).
  static double call_price(double spot, double strike, double rate, double volatility,
                           double expiry);

  const Params& params() const { return params_; }

 private:
  /// The five per-option input columns (num_options rows each).
  struct Portfolio {
    std::vector<double> spot, strike, rate, volatility, expiry;
  };

  Params params_;
  std::shared_ptr<const Portfolio> portfolio_;
};

}  // namespace hpac::apps

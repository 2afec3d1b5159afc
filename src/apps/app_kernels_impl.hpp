#pragma once

// Shared templated bodies of the per-ISA application kernels. Included
// ONLY by the per-ISA translation units (app_kernels_sse2.cpp /
// app_kernels_avx2.cpp), which supply their ISA's `Ops` traits over the
// native vector register (common/simd_ops_{sse2,avx2}.hpp, which document
// the contract); everything here is written against that
// abstract interface so there is exactly one copy of the math to keep
// bit-identical with the scalar reference.
//
// Bit-identity contract (the whole point): each lane executes the exact
// operation sequence of `Blackscholes::call_price` / the binomial
// backward-induction statement / the kmeans distance loop and argmin —
// same association, explicit mul/add
// (never FMA; these TUs are compiled without -mfma and intrinsics are
// never contracted), and scalar libm calls (`std::log`, `std::exp`)
// extracted per lane, since no vector math library is allowed to change
// rounding. IEEE-exact operations (sub/mul/add/div/sqrt/abs/select)
// produce the same bits lane-wise as scalar, so prices — and therefore
// QoI vectors, error metrics and sweep CSV bytes — are invariant across
// dispatch levels.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "apps/blackscholes.hpp"

namespace hpac::apps::kernels {

/// Apply scalar libm `fn` to every lane. The round-trip through memory
/// is bit-exact; the per-lane calls are the same calls the scalar path
/// makes, so there is no vector-math rounding divergence to reason
/// about.
template <typename Ops, double Fn(double)>
inline typename Ops::V lanes_libm(typename Ops::V x) {
  double tmp[Ops::kWidth];
  Ops::storeu(tmp, x);
  for (int l = 0; l < Ops::kWidth; ++l) tmp[l] = Fn(tmp[l]);
  return Ops::loadu(tmp);
}

inline double libm_log(double x) { return std::log(x); }
inline double libm_exp(double x) { return std::exp(x); }

/// Vector CND replicating blackscholes.cpp's `cnd` term by term:
/// polynomial terms left-associated (`a3*k*k*k` = `((a3*k)*k)*k`), the
/// term sum left-associated, and `1/sqrt(2*pi)` the same compile-time
/// constant the scalar TU folds.
template <typename Ops>
inline typename Ops::V cnd_v(typename Ops::V d) {
  using V = typename Ops::V;
  const V one = Ops::broadcast(1.0);
  const V k = Ops::div(one, Ops::add(one, Ops::mul(Ops::broadcast(0.2316419), Ops::abs(d))));
  const V t1 = Ops::mul(Ops::broadcast(0.31938153), k);
  const V t2 = Ops::mul(Ops::mul(Ops::broadcast(-0.356563782), k), k);
  const V t3 = Ops::mul(Ops::mul(Ops::mul(Ops::broadcast(1.781477937), k), k), k);
  const V t4 = Ops::mul(Ops::mul(Ops::mul(Ops::mul(Ops::broadcast(-1.821255978), k), k), k), k);
  const V t5 =
      Ops::mul(Ops::mul(Ops::mul(Ops::mul(Ops::mul(Ops::broadcast(1.330274429), k), k), k), k), k);
  const V poly = Ops::add(Ops::add(Ops::add(Ops::add(t1, t2), t3), t4), t5);
  const V ex = lanes_libm<Ops, libm_exp>(Ops::mul(Ops::mul(Ops::broadcast(-0.5), d), d));
  const double inv_sqrt_2pi = 1.0 / std::sqrt(2.0 * M_PI);
  const V c = Ops::sub(one, Ops::mul(Ops::mul(Ops::broadcast(inv_sqrt_2pi), ex), poly));
  return Ops::select(Ops::lt(d, Ops::zero()), Ops::sub(one, c), c);
}

/// W packed call options per iteration; scalar remainder defers to
/// `Blackscholes::call_price` itself so the tail is trivially exact.
template <typename Ops>
void blackscholes_batch_impl(const double* spot, const double* strike, const double* rate,
                             const double* volatility, const double* expiry, double* out, int n) {
  using V = typename Ops::V;
  constexpr int kW = Ops::kWidth;
  int j = 0;
  for (; j + kW <= n; j += kW) {
    const V s = Ops::loadu(spot + j);
    const V x = Ops::loadu(strike + j);
    const V r = Ops::loadu(rate + j);
    const V v = Ops::loadu(volatility + j);
    const V t = Ops::loadu(expiry + j);
    const V sqrt_t = Ops::sqrt(t);
    const V log_sx = lanes_libm<Ops, libm_log>(Ops::div(s, x));
    // d1 numerator: log(s/x) + (r + 0.5*v*v) * t, exactly as associated
    // in call_price; denominator v*sqrt_t is reused for d2 (the scalar
    // recomputes it — same operands, same op, same bits).
    const V v_sqrt_t = Ops::mul(v, sqrt_t);
    const V d1 = Ops::div(
        Ops::add(log_sx, Ops::mul(Ops::add(r, Ops::mul(Ops::mul(Ops::broadcast(0.5), v), v)), t)),
        v_sqrt_t);
    const V d2 = Ops::sub(d1, v_sqrt_t);
    const V disc = lanes_libm<Ops, libm_exp>(Ops::neg(Ops::mul(r, t)));
    const V price = Ops::sub(Ops::mul(s, cnd_v<Ops>(d1)), Ops::mul(Ops::mul(x, disc), cnd_v<Ops>(d2)));
    Ops::storeu(out + j, price);
  }
  for (; j < n; ++j) {
    out[j] = Blackscholes::call_price(spot[j], strike[j], rate[j], volatility[j], expiry[j]);
  }
}

/// Backward induction with lanes = tree nodes of one level. The update
/// `values[i] = discount * (p_up*values[i+1] + p_down*values[i])` is
/// elementwise over i (no reduction), and both source vectors are loaded
/// before the store, so vectorizing across i is bit-identical by
/// construction. Highest index read is i + kW <= level + 1 <= steps,
/// within the `steps + 1` array.
template <typename Ops>
void binomial_induct_impl(double* values, int steps, double discount, double p_up, double p_down) {
  using V = typename Ops::V;
  constexpr int kW = Ops::kWidth;
  const V disc = Ops::broadcast(discount);
  const V pu = Ops::broadcast(p_up);
  const V pd = Ops::broadcast(p_down);
  for (int level = steps - 1; level >= 0; --level) {
    int i = 0;
    for (; i + kW <= level + 1; i += kW) {
      const V cur = Ops::loadu(values + i);
      const V next = Ops::loadu(values + i + 1);
      Ops::storeu(values + i, Ops::mul(disc, Ops::add(Ops::mul(pu, next), Ops::mul(pd, cur))));
    }
    for (; i <= level; ++i) {
      values[i] = discount * (p_up * values[i + 1] + p_down * values[i]);
    }
  }
}

/// Nearest centroid with lanes = items. A step takes `4 * kW` consecutive
/// lanes as four vectors; every (centroid, dimension) step broadcasts
/// `centroids_t[j * k + c]` and feeds the four vectors' independent
/// `dist += diff * diff` chains, so each lane accumulates over ascending
/// dimensions exactly like the scalar loop. After each centroid a strict
/// `<` blend updates every lane's best distance and label, visiting
/// centroids in ascending `c`: the first of equally near centroids wins
/// and a NaN distance never does. Lanes outside the mask repeat the
/// step's first active lane, so the kernel never reads past the mask's
/// highest lane; their labels are dropped.
template <typename Ops>
void kmeans_assign_impl(const double* points, int dims, const double* centroids_t, int k,
                        std::uint64_t lanes, double* out) {
  using V = typename Ops::V;
  constexpr int kW = Ops::kWidth;
  constexpr int kVectors = 4;
  constexpr int kStep = kVectors * kW;
  // Observation dimensions gathered once per step and reused for every
  // centroid; wider observations gather their remaining dimensions per
  // centroid (same values, same order).
  constexpr int kHeldDims = 16;
  const int held_dims = std::min(dims, kHeldDims);
  const int lane_end = std::bit_width(lanes);
  for (int first = 0; first < lane_end; first += kStep) {
    const std::uint64_t step = (lanes >> first) & ((std::uint64_t{1} << kStep) - 1);
    if (step == 0) continue;
    const int spare = first + std::countr_zero(step);
    int offsets[kVectors][kW];
    for (int q = 0; q < kVectors; ++q) {
      for (int l = 0; l < kW; ++l) {
        const int bit = q * kW + l;
        offsets[q][l] = ((step >> bit) & 1 ? first + bit : spare) * dims;
      }
    }
    V held[kHeldDims][kVectors];
    for (int j = 0; j < held_dims; ++j) {
      for (int q = 0; q < kVectors; ++q) held[j][q] = Ops::load_lanes(points + j, offsets[q]);
    }
    V best_dist[kVectors];
    V best[kVectors];
    for (int q = 0; q < kVectors; ++q) {
      best_dist[q] = Ops::broadcast(std::numeric_limits<double>::infinity());
      best[q] = Ops::broadcast(0.0);
    }
    for (int c = 0; c < k; ++c) {
      V dist[kVectors];
      for (int q = 0; q < kVectors; ++q) dist[q] = Ops::broadcast(0.0);
      for (int j = 0; j < held_dims; ++j) {
        const V centroid = Ops::broadcast(centroids_t[static_cast<std::size_t>(j) * k + c]);
        for (int q = 0; q < kVectors; ++q) {
          const V diff = Ops::sub(held[j][q], centroid);
          dist[q] = Ops::add(dist[q], Ops::mul(diff, diff));
        }
      }
      for (int j = held_dims; j < dims; ++j) {
        const V centroid = Ops::broadcast(centroids_t[static_cast<std::size_t>(j) * k + c]);
        for (int q = 0; q < kVectors; ++q) {
          const V diff = Ops::sub(Ops::load_lanes(points + j, offsets[q]), centroid);
          dist[q] = Ops::add(dist[q], Ops::mul(diff, diff));
        }
      }
      const V label = Ops::broadcast(static_cast<double>(c));
      for (int q = 0; q < kVectors; ++q) {
        const V nearer = Ops::lt(dist[q], best_dist[q]);
        best_dist[q] = Ops::select(nearer, dist[q], best_dist[q]);
        best[q] = Ops::select(nearer, label, best[q]);
      }
    }
    double labels[kStep];
    for (int q = 0; q < kVectors; ++q) Ops::storeu(labels + q * kW, best[q]);
    for (std::uint64_t m = step; m != 0; m &= m - 1) {
      const int bit = std::countr_zero(m);
      out[first + bit] = labels[bit];
    }
  }
}

}  // namespace hpac::apps::kernels

#pragma once

// Shared body of the vectorized iACT table scans, included ONLY by the
// per-ISA translation units (iact_scan_sse2.cpp / iact_scan_avx2.cpp),
// each of which instantiates it with its own vector-ops traits. Kept out
// of iact_scan.hpp so the template never leaks into TUs compiled without
// the matching ISA flags.
//
// Bit-identity contract (what makes HPAC_SIMD a pure perf knob):
//  * lanes are table ROWS — each row's squared distance accumulates
//    `sq += diff * diff` in ascending-dimension order, the scalar scan's
//    exact sequence, with explicit mul/add vector ops (never FMA, which
//    would round differently from the scalar build's mul+add);
//  * block results are folded in ascending row order through the same
//    strict `sq < best_sq` / `sqrt(sq) < best_distance` comparisons the
//    scalar scan performs, preserving the first-strictly-nearer-in-the-
//    sqrt-domain tie-break;
//  * the early-abandon check (whole block's partial sums already above
//    the best squared distance) only skips rows that could never win —
//    partial squared sums are monotone — so it changes work, not results.
//
// The batched-probe kernel (`lanes_scan_impl`) turns the axes around:
// lanes are PROBES of one table, rows are visited in ascending order with
// each row dimension broadcast, and every lane runs the scalar scan's
// per-row sequence — `sq += diff * diff` in ascending-dimension order,
// then the strict `sq < best_sq` / `sqrt(sq) < best_distance` updates as
// masked blends (vector sqrt is IEEE-exact). It computes every row in full
// where the scalar scan may abandon one early; an abandoned row's partial
// sum already exceeded `best_sq` and its full sum can only be larger (or
// NaN), so it fails the same strict test either way.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "approx/iact_scan.hpp"

namespace hpac::approx::detail {

/// `kDims > 0`: compile-time dimension count (loop fully unrolled).
/// `kDims == 0`: generic runtime-dimension kernel.
template <typename Ops, int kDims>
IactMatch scan_impl(const ScanArgs& args) {
  constexpr int kW = Ops::kWidth;
  const int dims = kDims > 0 ? kDims : args.in_dims;
  const int cap = args.capacity;
  const double* soa = args.soa;
  const double* probe = args.probe;

  IactMatch best;
  double best_sq = std::numeric_limits<double>::infinity();

  int row = 0;
  for (; row + kW <= args.valid_count; row += kW) {
    const typename Ops::V best_sq_v = Ops::broadcast(best_sq);
    typename Ops::V sq_v = Ops::zero();
    bool abandoned = false;
    for (int d = 0; d < dims; ++d) {
      const typename Ops::V diff =
          Ops::sub(Ops::broadcast(probe[d]), Ops::loadu(soa + d * cap + row));
      sq_v = Ops::add(sq_v, Ops::mul(diff, diff));
      if (Ops::all_gt(sq_v, best_sq_v)) {
        abandoned = true;
        break;
      }
    }
    if (abandoned) continue;
    double lane_sq[kW];
    Ops::store(lane_sq, sq_v);
    for (int lane = 0; lane < kW; ++lane) {
      const double sq = lane_sq[lane];
      if (sq < best_sq) {
        best_sq = sq;
        const double distance = std::sqrt(sq);
        if (distance < best.distance) {
          best.distance = distance;
          best.index = row + lane;
        }
      }
    }
  }

  // Remainder rows: the scalar scan verbatim, reading through the mirror
  // (same values bit-for-bit as the row-major storage).
  for (; row < args.valid_count; ++row) {
    double sq = 0.0;
    for (int d = 0; d < dims; ++d) {
      const double diff = probe[d] - soa[d * cap + row];
      sq += diff * diff;
      if (sq > best_sq) break;
    }
    if (sq < best_sq) {
      best_sq = sq;
      const double distance = std::sqrt(sq);
      if (distance < best.distance) {
        best.distance = distance;
        best.index = row;
      }
    }
  }
  return best;
}

/// `kDims > 0`: probes held in registers across all rows.
/// `kDims == 0`: generic runtime-dimension kernel (probes reloaded per row).
template <typename Ops, int kDims>
void lanes_scan_impl(const LanesScanArgs& args) {
  using V = typename Ops::V;
  constexpr int kW = Ops::kWidth;
  const int dims = kDims > 0 ? kDims : args.in_dims;

  int lane_ids[64];
  int count = 0;
  for (std::uint64_t m = args.lanes; m != 0; m &= m - 1) {
    lane_ids[count++] = std::countr_zero(m);
  }

  for (int first = 0; first < count; first += kW) {
    // A short last step repeats its final probe in the spare lanes; their
    // answers are computed and dropped.
    int lanes[kW];
    int offsets[kW];
    for (int j = 0; j < kW; ++j) {
      lanes[j] = lane_ids[first + j < count ? first + j : count - 1];
      offsets[j] = lanes[j] * dims;
    }
    V probe[kDims > 0 ? kDims : 1];
    if constexpr (kDims > 0) {
      for (int d = 0; d < kDims; ++d) probe[d] = Ops::load_lanes(args.probes + d, offsets);
    }

    V best_sq = Ops::broadcast(std::numeric_limits<double>::infinity());
    V best_distance = best_sq;
    V best_index = Ops::broadcast(-1.0);
    const double* row = args.rows;
    for (int i = 0; i < args.valid_count; ++i, row += args.row_doubles) {
      V sq = Ops::zero();
      for (int d = 0; d < dims; ++d) {
        V p;
        if constexpr (kDims > 0) {
          p = probe[d];
        } else {
          p = Ops::load_lanes(args.probes + d, offsets);
        }
        const V diff = Ops::sub(p, Ops::broadcast(row[d]));
        sq = Ops::add(sq, Ops::mul(diff, diff));
      }
      const V nearer_sq = Ops::lt(sq, best_sq);
      // The scalar scan takes a square root only on improvements; so
      // does a step none of whose lanes improves (work, not results).
      if (!Ops::any(nearer_sq)) continue;
      best_sq = Ops::select(nearer_sq, sq, best_sq);
      const V distance = Ops::sqrt(sq);
      const V nearer = Ops::bit_and(nearer_sq, Ops::lt(distance, best_distance));
      best_distance = Ops::select(nearer, distance, best_distance);
      best_index = Ops::select(nearer, Ops::broadcast(static_cast<double>(i)), best_index);
    }

    double lane_distance[kW];
    double lane_index[kW];
    Ops::store(lane_distance, best_distance);
    Ops::store(lane_index, best_index);
    for (int j = 0; j < kW && first + j < count; ++j) {
      IactMatch& match = args.matches[lanes[j]];
      match.index = static_cast<int>(lane_index[j]);
      match.distance = lane_distance[j];
    }
  }
}

/// Kernels indexed by `in_dims`: slot 0 holds the generic kernel, slots
/// 1..8 the specialized ones.
template <typename Ops>
LanesScan select_lanes_scan_impl(int in_dims) {
  static constexpr void (*kKernels[])(const LanesScanArgs&) = {
      &lanes_scan_impl<Ops, 0>, &lanes_scan_impl<Ops, 1>, &lanes_scan_impl<Ops, 2>,
      &lanes_scan_impl<Ops, 3>, &lanes_scan_impl<Ops, 4>, &lanes_scan_impl<Ops, 5>,
      &lanes_scan_impl<Ops, 6>, &lanes_scan_impl<Ops, 7>, &lanes_scan_impl<Ops, 8>};
  return {kKernels[in_dims >= 1 && in_dims <= 8 ? in_dims : 0], Ops::kWidth};
}

template <typename Ops>
ScanFn select_scan_impl(int in_dims) {
  static constexpr ScanFn kKernels[] = {
      &scan_impl<Ops, 0>, &scan_impl<Ops, 1>, &scan_impl<Ops, 2>,
      &scan_impl<Ops, 3>, &scan_impl<Ops, 4>, &scan_impl<Ops, 5>,
      &scan_impl<Ops, 6>, &scan_impl<Ops, 7>, &scan_impl<Ops, 8>};
  return kKernels[in_dims >= 1 && in_dims <= 8 ? in_dims : 0];
}

}  // namespace hpac::approx::detail

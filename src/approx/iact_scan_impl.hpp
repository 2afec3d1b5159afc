#pragma once

// Shared body of the vectorized iACT table scans, included ONLY by the
// per-ISA translation units (iact_scan_sse2.cpp / iact_scan_avx2.cpp),
// each of which instantiates it with its ISA's Ops traits
// (common/simd_ops_{sse2,avx2}.hpp). Kept out of iact_scan.hpp so the
// template never leaks into TUs compiled without the matching ISA flags.
//
// Bit-identity contract (what makes HPAC_SIMD a pure perf knob): lanes
// are PROBES. Rows are visited in ascending order and every lane runs
// the scalar scan's per-row sequence — `sq += diff * diff` in
// ascending-dimension order with explicit mul/add vector ops (never FMA,
// which would round differently from the scalar build's mul+add), then
// the strict `sq < best_sq` / `sqrt(sq) < best_distance` updates as
// masked blends (vector sqrt is IEEE-exact), preserving the
// first-strictly-nearer-in-the-sqrt-domain tie-break. A lane computes
// every row in full where the scalar scan may abandon one early; an
// abandoned row's partial sum already exceeded `best_sq` and its full sum
// can only be larger (or NaN), so it fails the same strict test either
// way.
//
// The two kernels differ only in where a lane's rows come from:
// `lanes_scan_impl` gives every lane the same table and broadcasts each
// row dimension; `tables_scan_impl` gives each lane its own table — lane
// `l` reads row `i` of table `l >> shift` through `load_lanes`, and a lane
// whose table holds fewer than `i + 1` valid rows has that row masked out
// of both blends. `LaneNearest` is their shared per-step state.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "approx/iact_scan.hpp"

namespace hpac::approx::detail {

/// The running nearest row of every lane of one vector step, whose
/// probes are `probes + offsets[j]`. `kDims > 0`: probes held in
/// registers across all rows; `kDims == 0`: reloaded per row.
template <typename Ops, int kDims>
class LaneNearest {
 public:
  using V = typename Ops::V;
  static constexpr int kW = Ops::kWidth;

  LaneNearest(const double* probes, const int* offsets, int dims)
      : probes_(probes), offsets_(offsets), dims_(dims) {
    if constexpr (kDims > 0) {
      for (int d = 0; d < kDims; ++d) held_[d] = Ops::load_lanes(probes + d, offsets);
    }
  }

  /// Every lane's squared distance to a row whose dimension `d` on each
  /// lane is `row_dim(d)`, accumulated in ascending-dimension order.
  template <typename RowDim>
  V squared_distance(RowDim row_dim) const {
    const int dims = kDims > 0 ? kDims : dims_;
    V sq = Ops::zero();
    for (int d = 0; d < dims; ++d) {
      const V diff = Ops::sub(probe(d), row_dim(d));
      sq = Ops::add(sq, Ops::mul(diff, diff));
    }
    return sq;
  }

  /// Take row `i`, with squared distances `sq`, on every lane where it
  /// passes the scalar scan's strict tests.
  void fold(V sq, int i) { take(Ops::lt(sq, best_sq_), sq, i); }
  /// `fold` restricted to the lanes set in `eligible`.
  void fold(V sq, V eligible, int i) {
    take(Ops::bit_and(eligible, Ops::lt(sq, best_sq_)), sq, i);
  }

  /// Write lane `j`'s answer to `matches[lanes[j]]` for each set bit `j`
  /// of `kept`.
  void store(IactMatch* matches, const int* lanes, std::uint64_t kept) const {
    double lane_distance[kW];
    double lane_index[kW];
    Ops::storeu(lane_distance, best_distance_);
    Ops::storeu(lane_index, best_index_);
    for (; kept != 0; kept &= kept - 1) {
      const int j = std::countr_zero(kept);
      IactMatch& match = matches[lanes[j]];
      match.index = static_cast<int>(lane_index[j]);
      match.distance = lane_distance[j];
    }
  }

 private:
  V probe(int d) const {
    if constexpr (kDims > 0) {
      return held_[d];
    } else {
      return Ops::load_lanes(probes_ + d, offsets_);
    }
  }

  void take(V nearer_sq, V sq, int i) {
    // The scalar scan takes a square root only on improvements; so does
    // a step none of whose lanes improves (work, not results).
    if (!Ops::any(nearer_sq)) return;
    best_sq_ = Ops::select(nearer_sq, sq, best_sq_);
    const V distance = Ops::sqrt(sq);
    const V nearer = Ops::bit_and(nearer_sq, Ops::lt(distance, best_distance_));
    best_distance_ = Ops::select(nearer, distance, best_distance_);
    best_index_ = Ops::select(nearer, Ops::broadcast(static_cast<double>(i)), best_index_);
  }

  const double* probes_;
  const int* offsets_;
  int dims_;
  V held_[kDims > 0 ? kDims : 1];
  V best_sq_ = Ops::broadcast(std::numeric_limits<double>::infinity());
  V best_distance_ = best_sq_;
  V best_index_ = Ops::broadcast(-1.0);
};

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
    LaneNearest<Ops, kDims> nearest(args.probes, offsets, dims);
    const double* row = args.rows;
    for (int i = 0; i < args.valid_count; ++i, row += args.row_doubles) {
      const V sq = nearest.squared_distance([row](int d) { return Ops::broadcast(row[d]); });
      nearest.fold(sq, i);
    }
    const int kept = std::min(kW, count - first);
    nearest.store(args.matches, lanes, (std::uint64_t{1} << kept) - 1);
  }
}

template <typename Ops, int kDims>
void tables_scan_impl(const TablesScanArgs& args) {
  using V = typename Ops::V;
  constexpr int kW = Ops::kWidth;
  const int dims = kDims > 0 ? kDims : args.in_dims;
  const int lane_end = std::bit_width(args.lanes);

  for (int first = 0; first < lane_end; first += kW) {
    const std::uint64_t step = (args.lanes >> first) & ((std::uint64_t{1} << kW) - 1);
    if (step == 0) continue;
    // Lanes outside the mask repeat the step's first active lane, so they
    // read only what an active lane reads; their answers are dropped.
    const int spare = first + std::countr_zero(step);
    int lanes[kW];
    int probe_offsets[kW];
    int row_offsets[kW];
    double valid_counts[kW];
    int rows_end = 0;
    for (int j = 0; j < kW; ++j) {
      lanes[j] = (step >> j) & 1 ? first + j : spare;
      const int table = lanes[j] >> args.lanes_per_table_log2;
      probe_offsets[j] = lanes[j] * dims;
      row_offsets[j] = table * args.table_doubles;
      valid_counts[j] = args.valid_counts[table];
      rows_end = std::max(rows_end, args.valid_counts[table]);
    }
    LaneNearest<Ops, kDims> nearest(args.probes, probe_offsets, dims);
    const V valid_count = Ops::loadu(valid_counts);
    const double* row = args.rows;
    for (int i = 0; i < rows_end; ++i, row += args.row_doubles) {
      const V sq = nearest.squared_distance(
          [row, &row_offsets](int d) { return Ops::load_lanes(row + d, row_offsets); });
      nearest.fold(sq, Ops::lt(Ops::broadcast(static_cast<double>(i)), valid_count), i);
    }
    nearest.store(args.matches, lanes, step);
  }
}

/// Every kernel of one ISA for `in_dims`: slot 0 of each table holds the
/// generic kernel, slots 1..8 the specialized ones.
template <typename Ops>
IactKernels select_kernels_impl(int in_dims) {
  static constexpr void (*kLanes[])(const LanesScanArgs&) = {
      &lanes_scan_impl<Ops, 0>, &lanes_scan_impl<Ops, 1>, &lanes_scan_impl<Ops, 2>,
      &lanes_scan_impl<Ops, 3>, &lanes_scan_impl<Ops, 4>, &lanes_scan_impl<Ops, 5>,
      &lanes_scan_impl<Ops, 6>, &lanes_scan_impl<Ops, 7>, &lanes_scan_impl<Ops, 8>};
  static constexpr void (*kTables[])(const TablesScanArgs&) = {
      &tables_scan_impl<Ops, 0>, &tables_scan_impl<Ops, 1>, &tables_scan_impl<Ops, 2>,
      &tables_scan_impl<Ops, 3>, &tables_scan_impl<Ops, 4>, &tables_scan_impl<Ops, 5>,
      &tables_scan_impl<Ops, 6>, &tables_scan_impl<Ops, 7>, &tables_scan_impl<Ops, 8>};
  const int slot = in_dims >= 1 && in_dims <= 8 ? in_dims : 0;
  return {{kLanes[slot], Ops::kWidth}, {kTables[slot], Ops::kWidth}};
}

}  // namespace hpac::approx::detail

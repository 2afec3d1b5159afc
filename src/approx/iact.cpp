#include "approx/iact.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace hpac::approx {

namespace detail {
void throw_probe_mismatch() { throw Error("probe dimensionality mismatch"); }
void throw_insert_mismatch() { throw Error("insert input or output size mismatch"); }

IactKernels select_iact_kernels(int in_dims, simd::Level level) {
  // Widest-first with fall-through: a level whose TU was not compiled
  // (or a non-x86 host) degrades to the next narrower ISA, and kOff
  // always keeps the scalar reference paths.
  if (level >= simd::Level::kAvx2) {
    if (const IactKernels kernels = iact_kernels_avx2(in_dims); kernels.lanes.fn != nullptr) {
      return kernels;
    }
  }
  if (level >= simd::Level::kSse2) return iact_kernels_sse2(in_dims);
  return {};
}
}  // namespace detail

double euclidean_distance(std::span<const double> a, std::span<const double> b) {
  HPAC_REQUIRE(a.size() == b.size(), "distance between vectors of different size");
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
  }
  return std::sqrt(sq);
}

IactTable::IactTable(int table_size, int in_dims, int out_dims, Replacement policy,
                     std::span<double> storage)
    : table_size_(table_size),
      in_dims_(in_dims),
      out_dims_(out_dims),
      policy_(policy),
      storage_(storage),
      lanes_scan_(detail::select_iact_kernels(in_dims, simd::active_level()).lanes) {
  HPAC_REQUIRE(table_size >= 1, "iACT table size must be >= 1");
  HPAC_REQUIRE(in_dims >= 1, "iACT requires at least one input dimension");
  HPAC_REQUIRE(out_dims >= 1, "iACT requires at least one output dimension");
  HPAC_REQUIRE(storage.size() >= storage_doubles(table_size, in_dims, out_dims),
               "iACT storage span too small");
  if (policy == Replacement::kClock) referenced_.assign(static_cast<std::size_t>(table_size), 0);
}

std::size_t IactTable::storage_doubles(int table_size, int in_dims, int out_dims) {
  return static_cast<std::size_t>(table_size) *
         (static_cast<std::size_t>(in_dims) + static_cast<std::size_t>(out_dims));
}

std::size_t IactTable::footprint_bytes(int table_size, int in_dims, int out_dims) {
  // Entries + one validity byte and one reference byte per row + cursor:
  // the modeled device layout (the host tracks validity as the slot
  // prefix [0, valid_count_)).
  return storage_doubles(table_size, in_dims, out_dims) * sizeof(double) +
         static_cast<std::size_t>(table_size) * 2 + sizeof(std::int32_t);
}

void IactTable::reset() {
  std::fill(referenced_.begin(), referenced_.end(), std::uint8_t{0});
  cursor_ = 0;
  valid_count_ = 0;
}

void IactTable::mark_used(int index) {
  if (policy_ != Replacement::kClock) return;
  HPAC_REQUIRE(index >= 0 && index < table_size_, "mark_used index out of range");
  referenced_[static_cast<std::size_t>(index)] = 1;
}

void IactTable::find_nearest_lanes(std::span<const double> probes, sim::LaneMask lanes,
                                   std::span<Match> matches) const {
  if (lanes == 0) return;
  const auto lane_end = static_cast<std::size_t>(std::bit_width(lanes));
  HPAC_REQUIRE(probes.size() >= lane_end * static_cast<std::size_t>(in_dims_),
               "probe buffer smaller than the lane mask");
  HPAC_REQUIRE(matches.size() >= lane_end, "match buffer smaller than the lane mask");
  if (lanes_scan_.fn != nullptr && sim::popcount(lanes) >= lanes_scan_.width) {
    detail::LanesScanArgs args;
    args.rows = storage_.data();
    args.row_doubles = in_dims_ + out_dims_;
    args.valid_count = valid_count_;
    args.in_dims = in_dims_;
    args.probes = probes.data();
    args.lanes = lanes;
    args.matches = matches.data();
    lanes_scan_.fn(args);
    return;
  }
  const auto dims = static_cast<std::size_t>(in_dims_);
  sim::for_each_lane(lanes, [&](int lane) {
    matches[static_cast<std::size_t>(lane)] =
        find_nearest(probes.subspan(static_cast<std::size_t>(lane) * dims, dims));
  });
}

std::span<const double> IactTable::input_at(int index) const {
  HPAC_REQUIRE(index >= 0 && index < table_size_, "input_at index out of range");
  const std::size_t row = static_cast<std::size_t>(index) *
                          (static_cast<std::size_t>(in_dims_) + out_dims_);
  return storage_.subspan(row, static_cast<std::size_t>(in_dims_));
}

std::span<const double> IactTable::output_at(int index) const {
  HPAC_REQUIRE(index >= 0 && index < table_size_, "output_at index out of range");
  const std::size_t row = static_cast<std::size_t>(index) *
                          (static_cast<std::size_t>(in_dims_) + out_dims_);
  return storage_.subspan(row + static_cast<std::size_t>(in_dims_),
                          static_cast<std::size_t>(out_dims_));
}

IactTableSet::IactTableSet(int count, int table_size, int in_dims, int out_dims,
                           Replacement policy, std::span<double> storage)
    : stride_(IactTable::storage_doubles(table_size, in_dims, out_dims)), storage_(storage) {
  HPAC_REQUIRE(count >= 1, "an iACT table set needs at least one table");
  const auto tables = static_cast<std::size_t>(count);
  HPAC_REQUIRE(storage.size() >= tables * stride_, "iACT storage block too small");
  tables_scan_ = detail::select_iact_kernels(in_dims, simd::active_level()).tables;
  tables_.reserve(tables);
  for (std::size_t t = 0; t < tables; ++t) {
    tables_.emplace_back(table_size, in_dims, out_dims, policy,
                         storage.subspan(t * stride_, stride_));
  }
}

void IactTableSet::reset() {
  for (IactTable& table : tables_) table.reset();
}

void IactTableSet::find_nearest_warp(std::size_t first_table, int lanes_per_table_log2,
                                     std::span<const double> probes, sim::LaneMask lanes,
                                     std::span<IactMatch> matches) const {
  if (lanes == 0) return;
  const int lane_end = std::bit_width(lanes);
  const int lanes_per_table = 1 << lanes_per_table_log2;
  const auto table_end = static_cast<std::size_t>(((lane_end - 1) >> lanes_per_table_log2) + 1);
  HPAC_REQUIRE(first_table + table_end <= tables_.size(),
               "lane mask reaches past the last table");
  const IactTable* tables = tables_.data() + first_table;
  if (tables_scan_.fn != nullptr && lanes_per_table < tables_scan_.width) {
    const auto dims = static_cast<std::size_t>(tables->in_dims());
    HPAC_REQUIRE(probes.size() >= static_cast<std::size_t>(lane_end) * dims,
                 "probe buffer smaller than the lane mask");
    HPAC_REQUIRE(matches.size() >= static_cast<std::size_t>(lane_end),
                 "match buffer smaller than the lane mask");
    std::array<int, 64> valid_counts{};
    for (std::size_t t = 0; t < table_end; ++t) valid_counts[t] = tables[t].valid_count();
    detail::TablesScanArgs args;
    args.rows = storage_.data() + first_table * stride_;
    args.table_doubles = static_cast<int>(stride_);
    args.row_doubles = tables->in_dims() + tables->out_dims();
    args.valid_counts = valid_counts.data();
    args.lanes_per_table_log2 = lanes_per_table_log2;
    args.in_dims = tables->in_dims();
    args.probes = probes.data();
    args.lanes = lanes;
    args.matches = matches.data();
    tables_scan_.fn(args);
    return;
  }
  // full_mask, not a shift: one table per 64-lane wavefront spans the
  // whole 64-bit mask.
  const sim::LaneMask table_lanes = sim::full_mask(lanes_per_table);
  for (std::size_t t = 0; t < table_end; ++t) {
    const sim::LaneMask mine = lanes & (table_lanes << (t << lanes_per_table_log2));
    if (mine != 0) tables[t].find_nearest_lanes(probes, mine, matches);
  }
}

}  // namespace hpac::approx

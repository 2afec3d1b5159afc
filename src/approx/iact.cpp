#include "approx/iact.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace hpac::approx {

namespace detail {
void throw_probe_mismatch() { throw Error("probe dimensionality mismatch"); }

ScanFn select_iact_scan(int in_dims, simd::Level level) {
  // Widest-first with fall-through: a level whose TU was not compiled
  // (or a non-x86 host) degrades to the next narrower ISA, and kOff
  // always dispatches the scalar reference scan.
  if (level >= simd::Level::kAvx2) {
    if (ScanFn fn = iact_scan_fn_avx2(in_dims)) return fn;
  }
  if (level >= simd::Level::kSse2) {
    if (ScanFn fn = iact_scan_fn_sse2(in_dims)) return fn;
  }
  return nullptr;
}

LanesScan select_iact_lanes_scan(int in_dims, simd::Level level) {
  if (level >= simd::Level::kAvx2) {
    if (const LanesScan scan = iact_lanes_scan_avx2(in_dims); scan.fn != nullptr) return scan;
  }
  if (level >= simd::Level::kSse2) {
    if (const LanesScan scan = iact_lanes_scan_sse2(in_dims); scan.fn != nullptr) return scan;
  }
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
      referenced_(static_cast<std::size_t>(table_size), false) {
  HPAC_REQUIRE(table_size >= 1, "iACT table size must be >= 1");
  HPAC_REQUIRE(in_dims >= 1, "iACT requires at least one input dimension");
  HPAC_REQUIRE(out_dims >= 1, "iACT requires at least one output dimension");
  HPAC_REQUIRE(storage.size() >= storage_doubles(table_size, in_dims, out_dims),
               "iACT storage span too small");
  scan_fn_ = detail::select_iact_scan(in_dims_, simd::active_level());
  lanes_scan_ = detail::select_iact_lanes_scan(in_dims_, simd::active_level());
  if (scan_fn_ != nullptr) {
    soa_.assign(static_cast<std::size_t>(table_size) * static_cast<std::size_t>(in_dims), 0.0);
  }
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
  std::fill(referenced_.begin(), referenced_.end(), false);
  cursor_ = 0;
  valid_count_ = 0;
}

void IactTable::mark_used(int index) {
  if (policy_ != Replacement::kClock) return;
  HPAC_REQUIRE(index >= 0 && index < table_size_, "mark_used index out of range");
  referenced_[static_cast<std::size_t>(index)] = true;
}

int IactTable::victim_index() {
  if (valid_count_ < table_size_) {
    // Fill empty slots first under either policy. Valid entries always
    // occupy the slot prefix [0, valid_count_) — the same invariant the
    // scan's no-validity-check fast path rests on — so the first empty
    // slot IS valid_count_; no rescan from 0 per insert (was O(n²) fill).
    return valid_count_;
  }
  if (policy_ == Replacement::kRoundRobin) {
    const int victim = cursor_;
    cursor_ = (cursor_ + 1) % table_size_;
    return victim;
  }
  // CLOCK: advance the hand, clearing reference bits, until an
  // unreferenced entry is found.
  for (;;) {
    const int i = cursor_;
    cursor_ = (cursor_ + 1) % table_size_;
    if (!referenced_[static_cast<std::size_t>(i)]) return i;
    referenced_[static_cast<std::size_t>(i)] = false;
  }
}

void IactTable::insert(std::span<const double> in, std::span<const double> out) {
  HPAC_REQUIRE(in.size() == static_cast<std::size_t>(in_dims_), "insert input size mismatch");
  HPAC_REQUIRE(out.size() == static_cast<std::size_t>(out_dims_), "insert output size mismatch");
  const int slot = victim_index();
  const std::size_t row = static_cast<std::size_t>(slot) *
                          (static_cast<std::size_t>(in_dims_) + out_dims_);
  for (int d = 0; d < in_dims_; ++d) storage_[row + static_cast<std::size_t>(d)] = in[d];
  if (!soa_.empty()) {
    for (int d = 0; d < in_dims_; ++d) {
      soa_[static_cast<std::size_t>(d) * static_cast<std::size_t>(table_size_) +
           static_cast<std::size_t>(slot)] = in[d];
    }
  }
  for (int d = 0; d < out_dims_; ++d) {
    storage_[row + static_cast<std::size_t>(in_dims_) + static_cast<std::size_t>(d)] = out[d];
  }
  // Valid entries occupy the slot prefix, so the slot just past it is
  // the only one whose fill grows the table.
  if (slot == valid_count_) ++valid_count_;
  referenced_[static_cast<std::size_t>(slot)] = false;
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

}  // namespace hpac::approx

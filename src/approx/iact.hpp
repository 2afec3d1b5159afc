#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "approx/iact_scan.hpp"
#include "sim/warp.hpp"

namespace hpac::approx {

/// Cache replacement policy for iACT tables. The paper uses round-robin
/// and notes (footnote 3) that CLOCK made no difference; we implement both
/// so the ablation bench can reproduce that claim.
enum class Replacement { kRoundRobin, kClock };

/// An iACT (approximate input memoization) table (paper §2.3 and §3.1.4).
///
/// Each entry stores an input vector and the output vector the accurate
/// path produced for it. Lookup returns the entry with the smallest
/// Euclidean distance to the probe; the caller compares the distance to
/// the user threshold to decide whether to reuse the cached output.
///
/// On the GPU a table is *shared* by `warp_size / tables_per_warp` lanes.
/// Access is split into a reading phase (all lanes search concurrently)
/// and a writing phase where a single writer per table inserts — the lane
/// whose input was farthest from every cached value (the most
/// cache-improving candidate). `RegionExecutor` orchestrates the phases;
/// this class provides the storage and the per-operation semantics.
///
/// Storage lives in block shared memory via `SharedMemoryArena`.
class IactTable {
 public:
  IactTable(int table_size, int in_dims, int out_dims, Replacement policy,
            std::span<double> storage);

  /// Doubles of shared memory a table occupies.
  static std::size_t storage_doubles(int table_size, int in_dims, int out_dims);
  /// Bytes including validity/age bookkeeping.
  static std::size_t footprint_bytes(int table_size, int in_dims, int out_dims);

  using Match = IactMatch;

  /// Empty the table (all entries invalidated, cursor and CLOCK bits
  /// cleared) without releasing its storage. The executor reuses one set
  /// of tables across all teams of a launch — `reset()` between teams
  /// replaces the per-team reallocation.
  void reset();

  /// Reading phase: nearest entry by Euclidean distance (no state change).
  /// Defined inline below — this is the one operation iACT pays on *every*
  /// invocation (paper insight 4), so it must inline into the executor's
  /// per-lane loop.
  Match find_nearest(std::span<const double> in) const;

  /// Reading phase of every lane sharing this table at once (the paper's
  /// concurrent table search): for each lane `l` of `lanes`, write the
  /// nearest entry to the probe `probes[l * in_dims ..]` into
  /// `matches[l]`. Each answer is bit-identical to `find_nearest` of that
  /// probe at every dispatch level; with enough probes to fill a vector
  /// the lanes are probes, otherwise this loops `find_nearest`.
  void find_nearest_lanes(std::span<const double> probes, sim::LaneMask lanes,
                          std::span<Match> matches) const;

  /// Record a cache hit for CLOCK's reference bit. No-op for round-robin.
  void mark_used(int index);

  /// Writing phase: insert (in, out), evicting per the policy when full.
  /// Inline: the executor's single writer per table calls it every warp
  /// step that has an accurate lane.
  void insert(std::span<const double> in, std::span<const double> out);

  std::span<const double> input_at(int index) const;
  std::span<const double> output_at(int index) const;

  /// The `out_dims` cached outputs of entry `index`, unchecked: the hit
  /// path's copy source, for an `index` a `find_nearest` just returned.
  const double* output_data(int index) const {
    return storage_.data() + static_cast<std::size_t>(index) * row_doubles() +
           static_cast<std::size_t>(in_dims_);
  }

  int capacity() const { return table_size_; }
  int valid_count() const { return valid_count_; }
  int in_dims() const { return in_dims_; }
  int out_dims() const { return out_dims_; }

 private:
  std::size_t row_doubles() const {
    return static_cast<std::size_t>(in_dims_) + static_cast<std::size_t>(out_dims_);
  }
  int victim_index();

  int table_size_;
  int in_dims_;
  int out_dims_;
  Replacement policy_;
  std::span<double> storage_;  ///< table_size rows of (in_dims + out_dims)
  /// Batched-probe kernel chosen at construction from
  /// `simd::active_level()` and `in_dims`; `fn == nullptr` loops the
  /// single-probe scan.
  detail::LanesScan lanes_scan_;
  /// CLOCK reference bits, one byte per slot; empty under round-robin,
  /// which never reads them.
  std::vector<std::uint8_t> referenced_;
  int cursor_ = 0;  ///< round-robin insert / CLOCK hand
  int valid_count_ = 0;
};

/// The iACT tables of one execution context: `count` equally shaped
/// tables carved from one storage block at a fixed stride (table `t` owns
/// `storage[t * stride, (t + 1) * stride)`, `stride = storage_doubles`).
/// The fixed stride is what lets one vector step read several tables:
/// `find_nearest_warp` answers tables as lanes when a table serves fewer
/// lanes than a vector holds, and probes as lanes otherwise.
class IactTableSet {
 public:
  IactTableSet(int count, int table_size, int in_dims, int out_dims, Replacement policy,
               std::span<double> storage);

  std::size_t size() const { return tables_.size(); }
  IactTable& operator[](std::size_t t) { return tables_[t]; }
  const IactTable& operator[](std::size_t t) const { return tables_[t]; }

  /// `reset()` every table.
  void reset();

  /// Reading phase of one warp: lane `l` of `lanes` probes table
  /// `first_table + (l >> lanes_per_table_log2)` with
  /// `probes[l * in_dims ..]` and gets its answer in `matches[l]`; other
  /// entries of `matches` are untouched. Every answer is bit-identical to
  /// that table's `find_nearest` of the probe at every dispatch level.
  void find_nearest_warp(std::size_t first_table, int lanes_per_table_log2,
                         std::span<const double> probes, sim::LaneMask lanes,
                         std::span<IactMatch> matches) const;

 private:
  detail::TablesScan tables_scan_;
  std::size_t stride_;
  std::span<double> storage_;
  std::vector<IactTable> tables_;
};

/// Euclidean (L2) distance between two equally sized vectors; the match
/// metric of iACT's activation function.
double euclidean_distance(std::span<const double> a, std::span<const double> b);

namespace detail {
/// Out-of-line throws keep the inlined probe scan and insert free of
/// exception machinery.
[[noreturn]] void throw_probe_mismatch();
[[noreturn]] void throw_insert_mismatch();
}  // namespace detail

inline IactTable::Match IactTable::find_nearest(std::span<const double> in) const {
  if (in.size() != static_cast<std::size_t>(in_dims_)) {
    detail::throw_probe_mismatch();
  }
  // The scan runs for every region invocation, so it is the single
  // hottest loop of iACT execution: compare squared distances and take a
  // square root only on improvements. Partial squared sums only grow, so
  // a row whose partial sum already exceeds the best can be abandoned
  // without changing which entry wins; and since sqrt is monotone, a row
  // with sq >= best_sq could never have passed the original strict
  // `sqrt(sq) < best.distance` test either. The final strict comparison
  // happens in the sqrt domain so tie-breaking is identical to the
  // historical per-entry-sqrt scan even when two distinct squared
  // distances round to the same square root (first such entry wins).
  // Valid entries always occupy the slot prefix [0, valid_count_):
  // `victim_index` fills empty slots in ascending order and entries are
  // never individually invalidated, so the scan needs no per-row
  // validity check.
  const std::size_t stride = row_doubles();
  const double* probe = in.data();
  double best_sq = std::numeric_limits<double>::infinity();
  Match best;
  for (int i = 0; i < valid_count_; ++i) {
    const double* entry = storage_.data() + static_cast<std::size_t>(i) * stride;
    double sq = 0.0;
    for (int d = 0; d < in_dims_; ++d) {
      const double diff = probe[d] - entry[d];
      sq += diff * diff;
      if (sq > best_sq) break;
    }
    if (sq < best_sq) {
      best_sq = sq;
      const double distance = std::sqrt(sq);
      if (distance < best.distance) {
        best.distance = distance;
        best.index = i;
      }
    }
  }
  return best;
}

inline int IactTable::victim_index() {
  if (valid_count_ < table_size_) {
    // Fill empty slots first under either policy. Valid entries always
    // occupy the slot prefix [0, valid_count_) — the same invariant the
    // scan's no-validity-check fast path rests on — so the first empty
    // slot IS valid_count_; no rescan from 0 per insert (was O(n²) fill).
    return valid_count_;
  }
  if (policy_ == Replacement::kRoundRobin) {
    const int victim = cursor_;
    if (++cursor_ == table_size_) cursor_ = 0;
    return victim;
  }
  // CLOCK: advance the hand, clearing reference bits, until an
  // unreferenced entry is found.
  for (;;) {
    const int i = cursor_;
    if (++cursor_ == table_size_) cursor_ = 0;
    std::uint8_t& referenced = referenced_[static_cast<std::size_t>(i)];
    if (referenced == 0) return i;
    referenced = 0;
  }
}

inline void IactTable::insert(std::span<const double> in, std::span<const double> out) {
  if (in.size() != static_cast<std::size_t>(in_dims_) ||
      out.size() != static_cast<std::size_t>(out_dims_)) {
    detail::throw_insert_mismatch();
  }
  const int slot = victim_index();
  double* row = storage_.data() + static_cast<std::size_t>(slot) * row_doubles();
  std::copy_n(in.data(), in_dims_, row);
  std::copy_n(out.data(), out_dims_, row + in_dims_);
  // Valid entries occupy the slot prefix, so the slot just past it is
  // the only one whose fill grows the table.
  if (slot == valid_count_) ++valid_count_;
  if (!referenced_.empty()) referenced_[static_cast<std::size_t>(slot)] = 0;
}

}  // namespace hpac::approx

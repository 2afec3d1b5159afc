#pragma once

#include <cstdint>
#include <limits>

#include "common/simd.hpp"

namespace hpac::approx {

/// Result of one iACT probe: the nearest valid entry and its Euclidean
/// distance (`index == -1`, distance +inf when no entry qualifies).
struct IactMatch {
  int index = -1;
  double distance = std::numeric_limits<double>::infinity();
  bool valid() const { return index >= 0; }
};

}  // namespace hpac::approx

namespace hpac::approx::detail {

/// Inputs of one batched probe scan: every lane of `lanes` searches the
/// same table. Lanes map to *probes* (lane `l`'s probe is
/// `probes[l * in_dims ..]`, its answer goes to `matches[l]`); rows are
/// read from the row-major `rows` storage (`row_doubles` apart) in
/// ascending order, one broadcast per dimension. Each lane runs the
/// scalar scan's exact per-row operation sequence, so every answer is
/// bit-identical to `IactTable::find_nearest` of that probe.
struct LanesScanArgs {
  const double* rows = nullptr;
  int row_doubles = 0;
  int valid_count = 0;
  int in_dims = 0;
  const double* probes = nullptr;
  std::uint64_t lanes = 0;
  IactMatch* matches = nullptr;
};

/// A batched kernel and its vector width: the probes one step answers.
/// A batch with fewer probes than `width` runs the scalar scan per probe
/// instead.
struct LanesScan {
  void (*fn)(const LanesScanArgs&) = nullptr;
  int width = 0;
};

/// Inputs of one tables-as-lanes scan: every lane of `lanes` probes its
/// own table of a block of equally shaped tables laid out
/// `table_doubles` apart. Lane `l` probes table `l >> lanes_per_table_log2`
/// (counted from `rows`, the first row of the warp's first table) with
/// `probes[l * in_dims ..]` and writes `matches[l]`; rows at or past that
/// table's `valid_counts[t]` are masked out. Each lane runs the scalar
/// scan's per-row sequence over its own table, so every answer is
/// bit-identical to that table's `IactTable::find_nearest` of the probe.
struct TablesScanArgs {
  const double* rows = nullptr;
  int table_doubles = 0;
  int row_doubles = 0;
  const int* valid_counts = nullptr;
  int lanes_per_table_log2 = 0;
  int in_dims = 0;
  const double* probes = nullptr;
  std::uint64_t lanes = 0;
  IactMatch* matches = nullptr;
};

/// A tables-as-lanes kernel and its vector width. It pays off when a
/// table serves fewer lanes than `width`, where the probes-as-lanes
/// kernel would run a short batch per table.
struct TablesScan {
  void (*fn)(const TablesScanArgs&) = nullptr;
  int width = 0;
};

/// The vector kernels of one table shape under one ISA; a null member
/// keeps the scalar path it would replace.
struct IactKernels {
  LanesScan lanes;
  TablesScan tables;
};

/// Per-ISA kernel lookup: specialized kernels for small `in_dims`
/// (compile-time unrolled dimension loop), generic ones otherwise. All
/// members are null when that ISA is not compiled into this binary.
IactKernels iact_kernels_sse2(int in_dims);
IactKernels iact_kernels_avx2(int in_dims);

/// The kernels for an `in_dims`-wide table under dispatch `level`,
/// falling back to narrower ISAs when the requested one is unavailable;
/// all null at `kOff`.
IactKernels select_iact_kernels(int in_dims, simd::Level level);

}  // namespace hpac::approx::detail

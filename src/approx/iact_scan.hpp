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

/// Inputs of one vectorized nearest-entry scan over an iACT table.
///
/// The kernels read the table through its dimension-major mirror
/// (`soa[d * capacity + row]`, maintained by `IactTable::insert`), which
/// turns "the same dimension of W consecutive rows" into one contiguous
/// vector load. Lanes map to rows; each lane accumulates its squared
/// distance in ascending-dimension order — exactly the scalar scan's
/// operation sequence — so the winning index *and* every distance bit
/// match the scalar reference by construction (see the `simd` tests).
struct ScanArgs {
  const double* soa = nullptr;
  const double* probe = nullptr;
  int capacity = 0;
  int valid_count = 0;
  int in_dims = 0;
};

using ScanFn = IactMatch (*)(const ScanArgs&);

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
/// A batch with fewer probes than `width` is cheaper on the
/// rows-as-lanes scan.
struct LanesScan {
  void (*fn)(const LanesScanArgs&) = nullptr;
  int width = 0;
};

/// Per-ISA kernel lookup: a specialized kernel for small `in_dims`
/// (compile-time unrolled dimension loop), a generic kernel otherwise.
/// Returns nullptr when that ISA is not compiled into this binary.
ScanFn iact_scan_fn_sse2(int in_dims);
ScanFn iact_scan_fn_avx2(int in_dims);
LanesScan iact_lanes_scan_sse2(int in_dims);
LanesScan iact_lanes_scan_avx2(int in_dims);

/// The kernel (or nullptr → use the scalar path) for an `in_dims`-wide
/// table under dispatch `level`, falling back to narrower ISAs when the
/// requested one is unavailable.
ScanFn select_iact_scan(int in_dims, simd::Level level);

/// Batched-probe counterpart of `select_iact_scan` (`fn == nullptr` →
/// loop the single-probe `find_nearest`).
LanesScan select_iact_lanes_scan(int in_dims, simd::Level level);

}  // namespace hpac::approx::detail

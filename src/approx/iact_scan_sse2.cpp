// SSE2 iACT table-scan kernels (128-bit lanes, two rows per step). SSE2
// is part of the x86-64 baseline, so this TU needs no special flags; on
// non-x86 hosts it compiles to a stub and dispatch stays scalar.

#include "approx/iact_scan.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include "approx/iact_scan_impl.hpp"

namespace hpac::approx::detail {

namespace {

struct Sse2Ops {
  static constexpr int kWidth = 2;
  using V = __m128d;
  static V zero() { return _mm_setzero_pd(); }
  static V broadcast(double x) { return _mm_set1_pd(x); }
  static V loadu(const double* p) { return _mm_loadu_pd(p); }
  static V sub(V a, V b) { return _mm_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm_mul_pd(a, b); }
  static V add(V a, V b) { return _mm_add_pd(a, b); }
  static bool all_gt(V a, V b) { return _mm_movemask_pd(_mm_cmpgt_pd(a, b)) == 0x3; }
  static void store(double* p, V a) { _mm_storeu_pd(p, a); }
  /// Lane j = base[offsets[j]].
  static V load_lanes(const double* base, const int* offsets) {
    return _mm_set_pd(base[offsets[1]], base[offsets[0]]);
  }
  static V sqrt(V a) { return _mm_sqrt_pd(a); }
  static V lt(V a, V b) { return _mm_cmplt_pd(a, b); }
  static bool any(V mask) { return _mm_movemask_pd(mask) != 0; }
  static V bit_and(V a, V b) { return _mm_and_pd(a, b); }
  static V select(V mask, V if_set, V if_clear) {
    // SSE2 has no blendv; exact bitwise select via the full-width mask.
    return _mm_or_pd(_mm_and_pd(mask, if_set), _mm_andnot_pd(mask, if_clear));
  }
};

}  // namespace

ScanFn iact_scan_fn_sse2(int in_dims) { return select_scan_impl<Sse2Ops>(in_dims); }
LanesScan iact_lanes_scan_sse2(int in_dims) {
  return select_lanes_scan_impl<Sse2Ops>(in_dims);
}

}  // namespace hpac::approx::detail

#else

namespace hpac::approx::detail {

ScanFn iact_scan_fn_sse2(int) { return nullptr; }
LanesScan iact_lanes_scan_sse2(int) { return {}; }

}  // namespace hpac::approx::detail

#endif

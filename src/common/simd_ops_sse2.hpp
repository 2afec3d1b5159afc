#pragma once

// SSE2 vector-ops traits (128-bit lanes, two doubles) shared by the SSE2
// kernel TUs, approx/iact_scan_sse2.cpp and apps/app_kernels_sse2.cpp,
// which instantiate the templated `*_impl.hpp` kernel bodies with it.
// Include it from nowhere else.
//
// Traits contract the kernel bodies are written against:
//   using V = <native vector of doubles>;  static constexpr int kWidth;
//   zero(), broadcast(x), loadu(p), storeu(p, v);
//   load_lanes(base, offsets)    lane j = base[offsets[j]]
//   add/sub/mul/div(a, b), sqrt(a) — IEEE-exact, so lane-wise bits equal
//                                the scalar operation's (never FMA);
//   abs(a), neg(a)               clear / flip the sign bit;
//   lt(a, b)                     lane: a < b (ordered) ? all-ones : 0;
//   any(mask)                    some lane of a comparison mask is set;
//   bit_and(a, b)                bitwise and of two masks;
//   select(mask, if_set, if_clear)  exact bitwise blend.

#if !defined(__SSE2__)
#error "simd_ops_sse2.hpp needs SSE2"
#endif

#include <emmintrin.h>

namespace hpac::simd {

struct Sse2Ops {
  static constexpr int kWidth = 2;
  using V = __m128d;
  static V zero() { return _mm_setzero_pd(); }
  static V broadcast(double x) { return _mm_set1_pd(x); }
  static V loadu(const double* p) { return _mm_loadu_pd(p); }
  static void storeu(double* p, V a) { _mm_storeu_pd(p, a); }
  static V load_lanes(const double* base, const int* offsets) {
    return _mm_set_pd(base[offsets[1]], base[offsets[0]]);
  }
  static V add(V a, V b) { return _mm_add_pd(a, b); }
  static V sub(V a, V b) { return _mm_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm_mul_pd(a, b); }
  static V div(V a, V b) { return _mm_div_pd(a, b); }
  static V sqrt(V a) { return _mm_sqrt_pd(a); }
  static V abs(V a) { return _mm_andnot_pd(_mm_set1_pd(-0.0), a); }
  static V neg(V a) { return _mm_xor_pd(a, _mm_set1_pd(-0.0)); }
  static V lt(V a, V b) { return _mm_cmplt_pd(a, b); }
  static bool any(V mask) { return _mm_movemask_pd(mask) != 0; }
  static V bit_and(V a, V b) { return _mm_and_pd(a, b); }
  static V select(V mask, V if_set, V if_clear) {
    // SSE2 has no blendv; exact bitwise select via the full-width mask.
    return _mm_or_pd(_mm_and_pd(mask, if_set), _mm_andnot_pd(mask, if_clear));
  }
};

}  // namespace hpac::simd

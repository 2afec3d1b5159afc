#pragma once

// AVX2 vector-ops traits (256-bit lanes, four doubles) shared by the AVX2
// kernel TUs, approx/iact_scan_avx2.cpp and apps/app_kernels_avx2.cpp,
// which CMake compiles with -mavx2 (and deliberately no -mfma: lanes must
// round exactly like the scalar build's separate mul and add). Include it
// from nowhere else. Same traits contract as simd_ops_sse2.hpp.

#if !defined(__AVX2__)
#error "simd_ops_avx2.hpp needs -mavx2"
#endif

#include <immintrin.h>

namespace hpac::simd {

struct Avx2Ops {
  static constexpr int kWidth = 4;
  using V = __m256d;
  static V zero() { return _mm256_setzero_pd(); }
  static V broadcast(double x) { return _mm256_set1_pd(x); }
  static V loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void storeu(double* p, V a) { _mm256_storeu_pd(p, a); }
  /// Element inserts, no store-forwarding round trip through memory.
  static V load_lanes(const double* base, const int* offsets) {
    return _mm256_set_pd(base[offsets[3]], base[offsets[2]], base[offsets[1]], base[offsets[0]]);
  }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V div(V a, V b) { return _mm256_div_pd(a, b); }
  static V sqrt(V a) { return _mm256_sqrt_pd(a); }
  static V abs(V a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }
  static V neg(V a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static V lt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static bool any(V mask) { return _mm256_movemask_pd(mask) != 0; }
  static V bit_and(V a, V b) { return _mm256_and_pd(a, b); }
  static V select(V mask, V if_set, V if_clear) {
    return _mm256_blendv_pd(if_clear, if_set, mask);
  }
};

}  // namespace hpac::simd

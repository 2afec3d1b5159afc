// AVX2 iACT table-scan kernels (256-bit lanes, four rows per step).
// Compiled with -mavx2 only when CMake's ISA probe passes (see
// HPAC_SIMD_COMPILED_AVX2); callers reach it through select_iact_scan,
// which consults the runtime cpuid gate in hpac::simd. Deliberately no
// -mfma: the kernels must round exactly like the scalar build's mul+add.

#include "approx/iact_scan.hpp"

#if defined(HPAC_SIMD_COMPILED_AVX2) && (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

#include "approx/iact_scan_impl.hpp"

namespace hpac::approx::detail {

namespace {

struct Avx2Ops {
  static constexpr int kWidth = 4;
  using V = __m256d;
  static V zero() { return _mm256_setzero_pd(); }
  static V broadcast(double x) { return _mm256_set1_pd(x); }
  static V loadu(const double* p) { return _mm256_loadu_pd(p); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static bool all_gt(V a, V b) {
    return _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_GT_OQ)) == 0xF;
  }
  static void store(double* p, V a) { _mm256_storeu_pd(p, a); }
  /// Lane j = base[offsets[j]] (element inserts, no store-forwarding
  /// round trip through memory).
  static V load_lanes(const double* base, const int* offsets) {
    return _mm256_set_pd(base[offsets[3]], base[offsets[2]], base[offsets[1]], base[offsets[0]]);
  }
  static V sqrt(V a) { return _mm256_sqrt_pd(a); }
  static V lt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static bool any(V mask) { return _mm256_movemask_pd(mask) != 0; }
  static V bit_and(V a, V b) { return _mm256_and_pd(a, b); }
  static V select(V mask, V if_set, V if_clear) {
    return _mm256_blendv_pd(if_clear, if_set, mask);
  }
};

}  // namespace

ScanFn iact_scan_fn_avx2(int in_dims) { return select_scan_impl<Avx2Ops>(in_dims); }
LanesScan iact_lanes_scan_avx2(int in_dims) {
  return select_lanes_scan_impl<Avx2Ops>(in_dims);
}

}  // namespace hpac::approx::detail

#else

namespace hpac::approx::detail {

ScanFn iact_scan_fn_avx2(int) { return nullptr; }
LanesScan iact_lanes_scan_avx2(int) { return {}; }

}  // namespace hpac::approx::detail

#endif

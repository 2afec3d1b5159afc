// AVX2 application kernels (256-bit lanes). Compiled with -mavx2 only
// when CMake's ISA probe passes (HPAC_SIMD_COMPILED_AVX2); reached
// through the dispatchers in simd_kernels.cpp behind the runtime cpuid
// gate. Deliberately no -mfma: lanes must round exactly like the scalar
// build's separate mul and add.

#include "apps/simd_kernels.hpp"

#if defined(HPAC_SIMD_COMPILED_AVX2) && (defined(__x86_64__) || defined(_M_X64))

#include "apps/app_kernels_impl.hpp"
#include "common/simd_ops_avx2.hpp"

namespace hpac::apps::kernels {

BlackscholesBatchFn blackscholes_batch_avx2() { return &blackscholes_batch_impl<simd::Avx2Ops>; }
BinomialInductFn binomial_induct_avx2() { return &binomial_induct_impl<simd::Avx2Ops>; }
KmeansAssignFn kmeans_assign_avx2() { return &kmeans_assign_impl<simd::Avx2Ops>; }

}  // namespace hpac::apps::kernels

#else

namespace hpac::apps::kernels {

BlackscholesBatchFn blackscholes_batch_avx2() { return nullptr; }
BinomialInductFn binomial_induct_avx2() { return nullptr; }
KmeansAssignFn kmeans_assign_avx2() { return nullptr; }

}  // namespace hpac::apps::kernels

#endif

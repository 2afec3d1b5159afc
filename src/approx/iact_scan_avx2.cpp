// AVX2 iACT table-scan kernels (256-bit lanes, four probes per step).
// Compiled with -mavx2 only when CMake's ISA probe passes (see
// HPAC_SIMD_COMPILED_AVX2); callers reach it through select_iact_kernels,
// which consults the runtime cpuid gate in hpac::simd. Deliberately no
// -mfma: the kernels must round exactly like the scalar build's mul+add.

#include "approx/iact_scan.hpp"

#if defined(HPAC_SIMD_COMPILED_AVX2) && (defined(__x86_64__) || defined(_M_X64))

#include "approx/iact_scan_impl.hpp"
#include "common/simd_ops_avx2.hpp"

namespace hpac::approx::detail {

IactKernels iact_kernels_avx2(int in_dims) { return select_kernels_impl<simd::Avx2Ops>(in_dims); }

}  // namespace hpac::approx::detail

#else

namespace hpac::approx::detail {

IactKernels iact_kernels_avx2(int) { return {}; }

}  // namespace hpac::approx::detail

#endif

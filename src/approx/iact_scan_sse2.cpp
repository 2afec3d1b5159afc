// SSE2 iACT table-scan kernels (128-bit lanes, two probes per step). SSE2
// is part of the x86-64 baseline, so this TU needs no special flags; on
// non-x86 hosts it compiles to a stub and dispatch stays scalar.

#include "approx/iact_scan.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include "approx/iact_scan_impl.hpp"
#include "common/simd_ops_sse2.hpp"

namespace hpac::approx::detail {

IactKernels iact_kernels_sse2(int in_dims) { return select_kernels_impl<simd::Sse2Ops>(in_dims); }

}  // namespace hpac::approx::detail

#else

namespace hpac::approx::detail {

IactKernels iact_kernels_sse2(int) { return {}; }

}  // namespace hpac::approx::detail

#endif

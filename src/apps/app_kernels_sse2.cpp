// SSE2 application kernels (128-bit lanes). Part of the x86-64
// baseline, so no special flags; non-x86 hosts get stubs and the apps
// stay scalar.

#include "apps/simd_kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include "apps/app_kernels_impl.hpp"
#include "common/simd_ops_sse2.hpp"

namespace hpac::apps::kernels {

BlackscholesBatchFn blackscholes_batch_sse2() { return &blackscholes_batch_impl<simd::Sse2Ops>; }
BinomialInductFn binomial_induct_sse2() { return &binomial_induct_impl<simd::Sse2Ops>; }
KmeansAssignFn kmeans_assign_sse2() { return &kmeans_assign_impl<simd::Sse2Ops>; }

}  // namespace hpac::apps::kernels

#else

namespace hpac::apps::kernels {

BlackscholesBatchFn blackscholes_batch_sse2() { return nullptr; }
BinomialInductFn binomial_induct_sse2() { return nullptr; }
KmeansAssignFn kmeans_assign_sse2() { return nullptr; }

}  // namespace hpac::apps::kernels

#endif

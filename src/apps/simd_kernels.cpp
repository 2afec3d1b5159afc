#include "apps/simd_kernels.hpp"

namespace hpac::apps::kernels {

// Widest-first with fall-through, mirroring select_iact_kernels: a level
// whose TU was not compiled (or a non-x86 host) degrades to the next
// narrower ISA; kOff always yields nullptr and the apps' scalar path.

BlackscholesBatchFn blackscholes_batch_fn() {
  const simd::Level level = simd::active_level();
  if (level >= simd::Level::kAvx2) {
    if (BlackscholesBatchFn fn = blackscholes_batch_avx2()) return fn;
  }
  if (level >= simd::Level::kSse2) {
    if (BlackscholesBatchFn fn = blackscholes_batch_sse2()) return fn;
  }
  return nullptr;
}

BinomialInductFn binomial_induct_fn() {
  const simd::Level level = simd::active_level();
  if (level >= simd::Level::kAvx2) {
    if (BinomialInductFn fn = binomial_induct_avx2()) return fn;
  }
  if (level >= simd::Level::kSse2) {
    if (BinomialInductFn fn = binomial_induct_sse2()) return fn;
  }
  return nullptr;
}

KmeansAssignFn kmeans_assign_fn() {
  const simd::Level level = simd::active_level();
  if (level >= simd::Level::kAvx2) {
    if (KmeansAssignFn fn = kmeans_assign_avx2()) return fn;
  }
  if (level >= simd::Level::kSse2) {
    if (KmeansAssignFn fn = kmeans_assign_sse2()) return fn;
  }
  return nullptr;
}

}  // namespace hpac::apps::kernels

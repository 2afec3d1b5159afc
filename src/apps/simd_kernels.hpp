#pragma once

// Vectorized application math for the apps whose `accurate` paths
// dominate sweep time: blackscholes batch pricing (lanes = option
// contracts) and the kmeans nearest-centroid search (lanes = items),
// both wired through the warp-per-call `accurate_batch` binding hook, and
// the binomial backward induction (lanes = tree nodes of one level,
// applied inside `tree_price`). Every kernel is bit-identical to its
// scalar reference — same per-lane operation order, explicit mul/add (no
// FMA) — so QoI vectors, error metrics and sweep CSVs are invariant
// across dispatch levels (enforced by the `simd` tests and the CI matrix).

#include <cstdint>

#include "common/simd.hpp"

namespace hpac::apps::kernels {

/// Price `n` packed call options; all six arrays have length `n`.
/// Processes lanes of `W` contracts with a scalar remainder that calls
/// `Blackscholes::call_price` verbatim.
using BlackscholesBatchFn = void (*)(const double* spot, const double* strike,
                                     const double* rate, const double* volatility,
                                     const double* expiry, double* out, int n);

/// One full backward induction over `values[0 .. steps]` (leaf payoffs
/// already in place): level `l` updates `values[i] = discount *
/// (p_up * values[i+1] + p_down * values[i])` for `i in [0, l]`.
using BinomialInductFn = void (*)(double* values, int steps, double discount, double p_up,
                                  double p_down);

/// Nearest centroid of every lane of `lanes`: lane `l`'s observation is
/// `points[l * dims ..]` and its cluster id goes to `out[l]`; no
/// observation past the mask's highest lane is read, and no `out` entry
/// outside the mask is written.
/// `centroids_t` is the dimension-major centroid matrix
/// (`centroids_t[j * k + c]`). Distances accumulate in ascending
/// dimension order and the argmin folds in ascending `c` with a strict
/// `<`, so the first of equally near centroids wins and an observation
/// with a NaN coordinate keeps cluster 0 — exactly the scalar loop.
using KmeansAssignFn = void (*)(const double* points, int dims, const double* centroids_t, int k,
                                std::uint64_t lanes, double* out);

/// Kernel for the current `simd::active_level()`; nullptr → scalar path.
BlackscholesBatchFn blackscholes_batch_fn();
BinomialInductFn binomial_induct_fn();
KmeansAssignFn kmeans_assign_fn();

/// Per-ISA entry points (nullptr when that ISA is not compiled in).
BlackscholesBatchFn blackscholes_batch_sse2();
BlackscholesBatchFn blackscholes_batch_avx2();
BinomialInductFn binomial_induct_sse2();
BinomialInductFn binomial_induct_avx2();
KmeansAssignFn kmeans_assign_sse2();
KmeansAssignFn kmeans_assign_avx2();

}  // namespace hpac::apps::kernels

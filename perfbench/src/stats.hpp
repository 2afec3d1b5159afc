#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty sample.
double median(std::vector<double> values);

/// Samples strictly above the nearest-rank `pct` percentile of `n` samples.
std::size_t samples_beyond(std::size_t n, double pct);

/// Nearest-rank percentile (`pct` in (0, 100)). A tail percentile is only
/// reported when at least `min_beyond` samples lie beyond it; otherwise the
/// sample is too small to say anything about that tail and this throws
/// std::invalid_argument instead of returning the sample maximum.
double percentile(std::vector<double> values, double pct, std::size_t min_beyond = 10);

/// 64-bit FNV-1a digest, printed as 16 hex digits by `hex_digest`.
std::uint64_t fnv1a(const std::string& bytes, std::uint64_t seed = 0xcbf29ce484222325ull);
std::string hex_digest(std::uint64_t digest);

/// Deterministic permutation of [0, n) from `seed` (Fisher-Yates over
/// mt19937_64), identical on every standard library.
std::vector<std::size_t> seeded_permutation(std::size_t n, std::uint64_t seed);

/// Seconds of one call of `fn`: the median of `reps` timed calls.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    samples.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }
  return median(std::move(samples));
}

}  // namespace perfbench

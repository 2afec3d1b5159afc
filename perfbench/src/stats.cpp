#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <random>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of an empty sample");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(),
                                         values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

namespace {

/// 1-based nearest rank of the `pct` percentile among `n` samples.
std::size_t nearest_rank(std::size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double pct) {
  if (n == 0) return 0;
  return n - nearest_rank(n, pct);
}

double percentile(std::vector<double> values, double pct, std::size_t min_beyond) {
  if (!(pct > 0.0 && pct < 100.0)) {
    throw std::invalid_argument("percentile must lie in (0, 100)");
  }
  if (values.empty()) throw std::invalid_argument("percentile of an empty sample");
  const std::size_t beyond = samples_beyond(values.size(), pct);
  if (beyond < min_beyond) {
    char what[160];
    std::snprintf(what, sizeof what,
                  "p%g of %zu samples has only %zu beyond it (need %zu)", pct,
                  values.size(), beyond, min_beyond);
    throw std::invalid_argument(what);
  }
  const std::size_t index = nearest_rank(values.size(), pct) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string hex_digest(std::uint64_t digest) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(digest));
  return text;
}

std::vector<std::size_t> seeded_permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng() % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

}  // namespace perfbench

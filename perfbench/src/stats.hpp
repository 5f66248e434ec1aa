// Order statistics for the benchmark's reports.
//
// A tail percentile is only meaningful when enough samples lie beyond
// it: with n samples, p99 rests on the n/100 slowest ones, and with
// fewer than kMinTail of those a single preempted op moves it. So
// percentile() refuses (nullopt) instead of reporting such a value.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTail = 10;

// Nearest-rank percentile (pct in (0, 100)) of `v`, which is sorted in
// place. nullopt unless at least kMinTail samples rank above it.
template <typename T>
std::optional<double> percentile(std::vector<T>& v, double pct) {
  const std::size_t n = v.size();
  if (n == 0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  if (rank == 0) rank = 1;
  if (n - rank < kMinTail) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

// Median of a small vector of run-level figures (mean of the middle
// two for even sizes).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

}  // namespace perfbench

// Small numeric helpers shared by the analysis modules.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <vector>

namespace wafp::util {

/// Arithmetic mean; 0 for an empty span.
[[nodiscard]] double mean(std::span<const double> values);

/// Population standard deviation; 0 for fewer than two values.
[[nodiscard]] double stddev(std::span<const double> values);

/// Minimum / maximum; both 0 for an empty span.
[[nodiscard]] double min_value(std::span<const double> values);
[[nodiscard]] double max_value(std::span<const double> values);

/// Count occurrences of each value.
template <typename T>
[[nodiscard]] std::map<T, std::size_t> value_counts(std::span<const T> values) {
  std::map<T, std::size_t> counts;
  for (const T& v : values) ++counts[v];
  return counts;
}

/// log2(n!): ln_factorial(n) divided by ln 2.
[[nodiscard]] double log_factorial(std::size_t n);

/// Natural-log factorial from the portable kernels, not libm lgamma:
/// running portable_log sums for n < 64, a Stirling series above (read
/// from a table built once for n < 4096). Host lgamma implementations
/// differ across libms; this one does not, which is why AMI/EMI
/// (analysis/ami.h) is bit-stable across hosts.
[[nodiscard]] double ln_factorial(std::size_t n);

}  // namespace wafp::util

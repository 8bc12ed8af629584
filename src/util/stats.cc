#include "util/stats.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <numeric>

#include "util/portable_math.h"

namespace wafp::util {

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (const double v : values) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values.size()));
}

double min_value(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return *std::min_element(values.begin(), values.end());
}

double max_value(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return *std::max_element(values.begin(), values.end());
}

namespace {

/// Stirling series: ln n! = n ln n - n + ln(2 pi n)/2
///   + 1/(12n) - 1/(360n^3) + 1/(1260n^5) - 1/(1680n^7).
/// At n >= 64 the first dropped term is < 5e-20 absolute.
double stirling_ln_factorial(std::size_t n) {
  const auto x = static_cast<double>(n);
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  const double series =
      inv * (1.0 / 12.0 +
             inv2 * (-1.0 / 360.0 +
                     inv2 * (1.0 / 1260.0 + inv2 * (-1.0 / 1680.0))));
  return x * portable_log(x) - x +
         0.5 * portable_log(2.0 * std::numbers::pi * x) + series;
}

}  // namespace

double ln_factorial(std::size_t n) {
  // Deterministic replacement for lgamma_r: host lgamma implementations
  // differ across libms, and AMI/EMI sums thousands of these terms — the
  // portable kernels make the analysis figures bit-identical on every
  // build host. Thread-safety is preserved (no signgam global): the table
  // is a function-local static (one-time magic-static init), and the
  // Stirling branch touches no shared state. The table holds running
  // portable_log sums below 64 and the Stirling series from 64 up to 4095,
  // so it returns exactly what the series would and the 2093-user study's
  // EMI never evaluates the series per call.
  static const std::array<double, 4096> table = [] {
    std::array<double, 4096> t{};
    double acc = 0.0;
    for (std::size_t k = 1; k < 64; ++k) {
      acc += portable_log(static_cast<double>(k));
      t[k] = acc;
    }
    for (std::size_t k = 64; k < t.size(); ++k) {
      t[k] = stirling_ln_factorial(k);
    }
    return t;
  }();
  if (n < table.size()) return table[n];
  return stirling_ln_factorial(n);
}

double log_factorial(std::size_t n) {
  return ln_factorial(n) / std::numbers::ln2;
}

}  // namespace wafp::util

// The benchmark's own clock, timers and percentile code. Nothing here reads
// the program's obs histograms: every timing is taken by the benchmark
// around calls into the program, and every quantile is an observed sample.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Wall-clock stopwatch started at construction.
class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}
  [[nodiscard]] double seconds() const {
    return static_cast<double>(now_ns() - start_) * 1e-9;
  }

 private:
  std::int64_t start_;
};

/// A sample that never completed (a refused request). It sorts above every
/// finite sample, so it counts against any latency limit.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Median plus the highest standard percentile that still has at least
/// `kMinBeyond` samples above its rank, all by the nearest-rank rule, so
/// every reported value is an observed sample (never above the maximum).
struct Summary {
  static constexpr std::size_t kMinBeyond = 10;

  std::size_t count = 0;
  double median = 0.0;
  /// 0 when fewer than 2 * kMinBeyond samples exist: no percentile (not
  /// even the median) then has ten samples beyond it.
  double tail_pct = 0.0;
  double tail = 0.0;
  std::size_t beyond = 0;  // samples ranked above the tail sample
  double max = 0.0;
  std::size_t missed = 0;  // kMissed samples

  [[nodiscard]] bool has_tail() const { return tail_pct > 0.0; }
  /// "p99 of 12000", for the human-readable report.
  [[nodiscard]] std::string tail_label() const;
};

class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void reserve(std::size_t n) { values_.reserve(n); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  [[nodiscard]] Summary summarize() const;

 private:
  std::vector<double> values_;
};

/// Median of a small set of repetitions (set-up times, per-pass times).
[[nodiscard]] double median_of(std::vector<double> values);

}  // namespace perfbench

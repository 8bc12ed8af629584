#include "timing.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

// Candidate tail levels, highest last: decades, so the reported level has
// between 10 and about 100 samples beyond it. The summary reports the
// highest one whose nearest-rank sample still has kMinBeyond above it.
constexpr double kTailLevels[] = {50.0, 90.0, 99.0, 99.9, 99.99, 99.999};

std::size_t rank_of(std::size_t n, double pct) {
  // Nearest rank, 1-based: ceil(pct/100 * n), clamped to [1, n].
  const double exact = pct / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank quantile of an ascending-sorted, non-empty vector.
double nearest_rank(const std::vector<double>& sorted, double pct) {
  return sorted[rank_of(sorted.size(), pct) - 1];
}

}  // namespace

std::string Summary::tail_label() const {
  char buf[64];
  if (!has_tail()) {
    std::snprintf(buf, sizeof buf, "no tail (n=%zu)", count);
  } else {
    std::snprintf(buf, sizeof buf, "p%g of %zu", tail_pct, count);
  }
  return buf;
}

Summary Samples::summarize() const {
  Summary s;
  s.count = values_.size();
  if (values_.empty()) return s;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  s.max = sorted.back();
  s.missed = static_cast<std::size_t>(
      std::count(sorted.begin(), sorted.end(), kMissed));
  s.median = nearest_rank(sorted, 50.0);
  for (const double pct : kTailLevels) {
    const std::size_t beyond = sorted.size() - rank_of(sorted.size(), pct);
    if (beyond < Summary::kMinBeyond) break;
    s.tail_pct = pct;
    s.tail = nearest_rank(sorted, pct);
    s.beyond = beyond;
  }
  return s;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench

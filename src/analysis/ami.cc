#include "analysis/ami.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "util/check.h"
#include "util/portable_math.h"
#include "util/stats.h"

namespace wafp::analysis {
namespace {

/// Remap arbitrary labels to dense 0..k-1.
std::vector<int> densify(std::span<const int> labels, std::size_t& k) {
  std::unordered_map<int, int> map;
  std::vector<int> out;
  out.reserve(labels.size());
  for (const int label : labels) {
    const auto [it, inserted] =
        map.try_emplace(label, static_cast<int>(map.size()));
    out.push_back(it->second);
  }
  k = map.size();
  return out;
}

/// One distinct value of a marginal, how many rows (or columns) carry it,
/// and its natural log.
struct Marginal {
  std::size_t value = 0;
  std::size_t count = 0;
  double ln = 0.0;
};

/// Distinct values of `sums` with their multiplicities, ascending.
std::vector<Marginal> distinct_marginals(std::span<const std::size_t> sums) {
  std::vector<std::size_t> sorted(sums.begin(), sums.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<Marginal> out;
  for (const std::size_t v : sorted) {
    if (!out.empty() && out.back().value == v) {
      ++out.back().count;
    } else {
      out.push_back({v, 1, util::portable_log(static_cast<double>(v))});
    }
  }
  return out;
}

}  // namespace

ContingencyTable build_contingency(std::span<const int> a,
                                   std::span<const int> b) {
  WAFP_CHECK(a.size() == b.size())
      << "label vectors differ in length: " << a.size() << " vs " << b.size();
  std::size_t ka = 0, kb = 0;
  const std::vector<int> da = densify(a, ka);
  const std::vector<int> db = densify(b, kb);

  ContingencyTable table;
  table.row_sums.assign(ka, 0);
  table.col_sums.assign(kb, 0);
  table.total = a.size();
  // Sorting (row, col) pairs packed row-major into one key groups equal
  // cells and leaves them in (row, col) order.
  std::vector<std::uint64_t> keys(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ++table.row_sums[da[i]];
    ++table.col_sums[db[i]];
    keys[i] = (static_cast<std::uint64_t>(da[i]) << 32) |
              static_cast<std::uint32_t>(db[i]);
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && keys[i] == keys[i - 1]) {
      ++table.cells.back().count;
    } else {
      table.cells.push_back({static_cast<std::size_t>(keys[i] >> 32),
                             static_cast<std::size_t>(keys[i] & 0xFFFFFFFFu),
                             1});
    }
  }
  return table;
}

double mutual_information(const ContingencyTable& table) {
  const auto n = static_cast<double>(table.total);
  double mi = 0.0;
  for (const ContingencyCell& cell : table.cells) {
    const double pij = static_cast<double>(cell.count) / n;
    const double pi = static_cast<double>(table.row_sums[cell.row]) / n;
    const double pj = static_cast<double>(table.col_sums[cell.col]) / n;
    mi += pij * util::portable_log(pij / (pi * pj));
  }
  return std::max(0.0, mi);
}

double marginal_entropy(std::span<const std::size_t> sums, std::size_t total) {
  const auto n = static_cast<double>(total);
  double h = 0.0;
  for (const std::size_t s : sums) {
    if (s == 0) continue;
    const double p = static_cast<double>(s) / n;
    h -= p * util::portable_log(p);
  }
  return h;
}

double expected_mutual_information(const ContingencyTable& table) {
  // Vinh et al. (2009), Eq. for E[MI] under the hypergeometric model:
  // sum over all (i, j) and all feasible nij of
  //   (nij/N) * ln(N*nij / (a_i*b_j)) * P_hypergeometric(nij; N, a_i, b_j).
  // The summand depends on (i, j) only through the marginal values, so the
  // sum runs over distinct (a, b) values, each weighted by how many rows
  // and columns carry them: collated study partitions have ~30 distinct
  // cluster sizes against ~350 clusters. Per pair, P is evaluated once, at
  // the hypergeometric mode, then walked outwards with the ratio
  // P(k+1)/P(k) = (a-k)(b-k) / ((k+1)(N-a-b+k+1)). Starting at the mode,
  // the walk never starts from an underflowed tail, and it stops where P
  // underflows to 0 (P is unimodal in k).
  // testing::RefExpectedMutualInformation keeps the per-(i, j) loop.
  const std::size_t n = table.total;
  if (n == 0) return 0.0;
  const std::vector<Marginal> rows = distinct_marginals(table.row_sums);
  const std::vector<Marginal> cols = distinct_marginals(table.col_sums);
  // ln k for every nij a walk can reach (nij <= min(a, b)); ln[0] unused.
  std::vector<double> ln(std::min(rows.back().value, cols.back().value) + 1);
  for (std::size_t k = 1; k < ln.size(); ++k) {
    ln[k] = util::portable_log(static_cast<double>(k));
  }
  const double ln_n = util::portable_log(static_cast<double>(n));
  const double ln_n_fact = util::ln_factorial(n);

  double emi = 0.0;
  for (const Marginal& row : rows) {
    for (const Marginal& col : cols) {
      const std::size_t a = row.value;
      const std::size_t b = col.value;
      const std::size_t lo = a + b > n ? a + b - n : std::size_t{1};
      const std::size_t hi = std::min(a, b);
      if (lo > hi) continue;  // an empty row or column
      // nij * ln(N*nij / (a*b)) * P(nij); the 1/N is applied once at the end.
      const double ln_scale = ln_n - row.ln - col.ln;
      const auto term = [&](std::size_t k, double p) {
        return static_cast<double>(k) * (ln[k] + ln_scale) * p;
      };
      const std::size_t mode = std::clamp((a + 1) * (b + 1) / (n + 2), lo, hi);
      const double p_mode = util::portable_exp(
          util::ln_factorial(a) + util::ln_factorial(b) +
          util::ln_factorial(n - a) + util::ln_factorial(n - b) - ln_n_fact -
          util::ln_factorial(mode) - util::ln_factorial(a - mode) -
          util::ln_factorial(b - mode) - util::ln_factorial(n + mode - a - b));
      double pair_sum = term(mode, p_mode);
      double p = p_mode;
      for (std::size_t k = mode; k < hi && p > 0.0; ++k) {
        p *= static_cast<double>((a - k) * (b - k)) /
             static_cast<double>((k + 1) * (n + k + 1 - a - b));
        pair_sum += term(k + 1, p);
      }
      p = p_mode;
      for (std::size_t k = mode; k > lo && p > 0.0; --k) {
        p *= static_cast<double>(k * (n + k - a - b)) /
             static_cast<double>((a - k + 1) * (b - k + 1));
        pair_sum += term(k - 1, p);
      }
      emi += static_cast<double>(row.count * col.count) * pair_sum;
    }
  }
  return emi / static_cast<double>(n);
}

double adjusted_mutual_information(std::span<const int> a,
                                   std::span<const int> b) {
  const ContingencyTable table = build_contingency(a, b);
  const double mi = mutual_information(table);
  const double h_a = marginal_entropy(table.row_sums, table.total);
  const double h_b = marginal_entropy(table.col_sums, table.total);
  // Degenerate cases: single-cluster partitions.
  if (h_a == 0.0 && h_b == 0.0) return 1.0;
  const double emi = expected_mutual_information(table);
  const double denom = 0.5 * (h_a + h_b) - emi;
  if (std::fabs(denom) < 1e-15) {
    return mi >= 0.5 * (h_a + h_b) ? 1.0 : 0.0;
  }
  return (mi - emi) / denom;
}

double normalized_mutual_information(std::span<const int> a,
                                     std::span<const int> b) {
  const ContingencyTable table = build_contingency(a, b);
  const double mi = mutual_information(table);
  const double h_a = marginal_entropy(table.row_sums, table.total);
  const double h_b = marginal_entropy(table.col_sums, table.total);
  if (h_a == 0.0 && h_b == 0.0) return 1.0;
  const double denom = 0.5 * (h_a + h_b);
  return denom > 0.0 ? mi / denom : 0.0;
}

}  // namespace wafp::analysis

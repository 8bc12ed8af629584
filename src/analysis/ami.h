// Adjusted Mutual Information (Vinh, Epps, Bailey 2009/2010) — the
// chance-corrected clustering-agreement measure the paper uses for its
// stability analysis (§3.3, Fig. 5) and cross-vector comparison (Fig. 9).
// AMI = (MI - E[MI]) / (mean(H(U), H(V)) - E[MI]) with the expectation
// taken under the hypergeometric (permutation) model.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wafp::analysis {

/// One nonzero cell of a contingency table: `count` items carry dense
/// label `row` in the first vector and `col` in the second.
struct ContingencyCell {
  std::size_t row = 0;
  std::size_t col = 0;
  std::size_t count = 0;

  friend bool operator==(const ContingencyCell&,
                         const ContingencyCell&) = default;
};

/// Contingency table between two label vectors of equal length, stored
/// sparsely: at most one cell per item, so building and walking it is
/// O(N log N) however many clusters either side has. Labels are densified
/// to 0..k-1 in order of first appearance.
struct ContingencyTable {
  std::vector<ContingencyCell> cells;  // nonzero only, sorted by (row, col)
  std::vector<std::size_t> row_sums;
  std::vector<std::size_t> col_sums;
  std::size_t total = 0;
};

[[nodiscard]] ContingencyTable build_contingency(std::span<const int> a,
                                                 std::span<const int> b);

/// Mutual information (natural log).
[[nodiscard]] double mutual_information(const ContingencyTable& table);

/// Entropy (natural log) of the marginal given by `sums`.
[[nodiscard]] double marginal_entropy(std::span<const std::size_t> sums,
                                      std::size_t total);

/// Expected MI under the hypergeometric model (natural log).
[[nodiscard]] double expected_mutual_information(const ContingencyTable& table);

/// Adjusted Mutual Information with arithmetic-mean normalization (the
/// common default); 1 = identical clusterings, ~0 = chance agreement.
[[nodiscard]] double adjusted_mutual_information(std::span<const int> a,
                                                 std::span<const int> b);

/// Normalized Mutual Information (no chance correction), for comparison.
[[nodiscard]] double normalized_mutual_information(std::span<const int> a,
                                                   std::span<const int> b);

}  // namespace wafp::analysis

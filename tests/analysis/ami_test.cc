#include "analysis/ami.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace wafp::analysis {
namespace {

TEST(ContingencyTest, BuildsCorrectTable) {
  const std::vector<int> a = {0, 0, 1, 1, 1};
  const std::vector<int> b = {0, 1, 1, 1, 0};
  const ContingencyTable table = build_contingency(a, b);
  EXPECT_EQ(table.total, 5u);
  EXPECT_EQ(table.row_sums.size(), 2u);
  EXPECT_EQ(table.col_sums.size(), 2u);
  // Nonzero cells only, in (row, col) order.
  const std::vector<ContingencyCell> expected = {
      {0, 0, 1}, {0, 1, 1}, {1, 0, 1}, {1, 1, 2}};
  EXPECT_EQ(table.cells, expected);
}

TEST(ContingencyTest, StoresOnlyNonzeroCellsInRowColOrder) {
  // Labels densify in order of first appearance (7 -> 0, 3 -> 1, 5 -> 2;
  // 9 -> 0, 2 -> 1, 4 -> 2); the 3x3 table has four empty cells.
  const std::vector<int> a = {7, 3, 5, 7, 3, 7};
  const std::vector<int> b = {9, 2, 4, 9, 4, 2};
  const ContingencyTable table = build_contingency(a, b);
  const std::vector<ContingencyCell> expected = {
      {0, 0, 2}, {0, 1, 1}, {1, 1, 1}, {1, 2, 1}, {2, 2, 1}};
  EXPECT_EQ(table.cells, expected);
  EXPECT_EQ(table.row_sums, (std::vector<std::size_t>{3, 2, 1}));
  EXPECT_EQ(table.col_sums, (std::vector<std::size_t>{2, 2, 2}));
  std::size_t sum = 0;
  for (const ContingencyCell& cell : table.cells) sum += cell.count;
  EXPECT_EQ(sum, table.total);
}

TEST(ContingencyDeathTest, LengthMismatchAbortsInEveryBuild) {
  // A WAFP_CHECK, not a DCHECK: a release build must not read past the end
  // of the shorter vector and fold garbage into AMI.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<int> a = {0, 0, 1, 1, 2};
  const std::vector<int> b = {0, 1, 1};
  EXPECT_DEATH((void)build_contingency(a, b),
               "WAFP_CHECK failed: a.size\\(\\) == b.size\\(\\) at "
               ".*ami\\.cc:[0-9]+: label vectors differ in length: 5 vs 3");
  EXPECT_DEATH((void)adjusted_mutual_information(b, a),
               "label vectors differ in length: 3 vs 5");
}

TEST(MutualInformationTest, IdenticalClusteringsEqualEntropy) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  const ContingencyTable table = build_contingency(a, a);
  const double mi = mutual_information(table);
  const double h = marginal_entropy(table.row_sums, table.total);
  EXPECT_NEAR(mi, h, 1e-12);
  EXPECT_NEAR(h, std::log(3.0), 1e-12);
}

TEST(MutualInformationTest, IndependentClusteringsNearZero) {
  const std::vector<int> a = {0, 0, 1, 1};
  const std::vector<int> b = {0, 1, 0, 1};
  EXPECT_NEAR(mutual_information(build_contingency(a, b)), 0.0, 1e-12);
}

TEST(AmiTest, IdenticalIsOne) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2, 3, 3};
  EXPECT_NEAR(adjusted_mutual_information(a, a), 1.0, 1e-9);
}

TEST(AmiTest, LabelPermutationInvariant) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  const std::vector<int> b = {7, 7, 5, 5, 9, 9};  // same partition, renamed
  EXPECT_NEAR(adjusted_mutual_information(a, b), 1.0, 1e-9);
}

TEST(AmiTest, Symmetric) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2, 0, 1};
  const std::vector<int> b = {0, 1, 1, 1, 2, 0, 0, 2};
  EXPECT_NEAR(adjusted_mutual_information(a, b),
              adjusted_mutual_information(b, a), 1e-12);
}

TEST(AmiTest, RandomClusteringsNearZero) {
  // The whole point of the chance adjustment: random label assignments
  // score ~0 even though raw MI is positive.
  util::Rng rng(99);
  std::vector<int> a(600), b(600);
  for (auto& v : a) v = static_cast<int>(rng.next_below(12));
  for (auto& v : b) v = static_cast<int>(rng.next_below(12));
  const double ami = adjusted_mutual_information(a, b);
  EXPECT_LT(std::fabs(ami), 0.06);
  // NMI without correction stays clearly positive here.
  EXPECT_GT(normalized_mutual_information(a, b), 0.02);
}

TEST(AmiTest, SingleClusterBothSidesIsOne) {
  const std::vector<int> a(10, 0);
  EXPECT_EQ(adjusted_mutual_information(a, a), 1.0);
}

TEST(AmiTest, OneUserMovedStaysHigh) {
  // Clustering disagreement from a single user must barely dent the score
  // (this is why the paper's collated fingerprints score ~0.99).
  std::vector<int> a(100), b(100);
  for (int i = 0; i < 100; ++i) a[i] = b[i] = i / 25;
  b[0] = 3;  // one user moves cluster
  const double ami = adjusted_mutual_information(a, b);
  EXPECT_GT(ami, 0.9);
  EXPECT_LT(ami, 1.0);
}

TEST(AmiTest, PartialAgreementBetweenZeroAndOne) {
  const std::vector<int> a = {0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<int> b = {0, 0, 0, 1, 1, 1, 1, 1};
  const double ami = adjusted_mutual_information(a, b);
  EXPECT_GT(ami, 0.0);
  EXPECT_LT(ami, 1.0);
}

TEST(AmiTest, RefinementScoresBelowOne) {
  // Splitting one cluster into two is a real disagreement.
  const std::vector<int> coarse = {0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<int> fine = {0, 0, 2, 2, 1, 1, 3, 3};
  const double ami = adjusted_mutual_information(coarse, fine);
  EXPECT_GT(ami, 0.2);
  EXPECT_LT(ami, 0.9);
}

TEST(EmiTest, ExpectedMiPositiveAndBelowEntropy) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2, 3, 3};
  const std::vector<int> b = {0, 1, 2, 3, 0, 1, 2, 3};
  const ContingencyTable table = build_contingency(a, b);
  const double emi = expected_mutual_information(table);
  const double h = marginal_entropy(table.row_sums, table.total);
  EXPECT_GT(emi, 0.0);
  EXPECT_LT(emi, h);
}

TEST(NmiTest, BoundsAndIdentity) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  EXPECT_NEAR(normalized_mutual_information(a, a), 1.0, 1e-12);
  const std::vector<int> b = {0, 1, 0, 1, 0, 1};
  const double nmi = normalized_mutual_information(a, b);
  EXPECT_GE(nmi, 0.0);
  EXPECT_LE(nmi, 1.0);
}

}  // namespace
}  // namespace wafp::analysis

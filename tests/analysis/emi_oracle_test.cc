// Differential check of analysis::expected_mutual_information against
// testing::RefExpectedMutualInformation. The fast path sums over distinct
// marginal values weighted by multiplicity and reads ln n! from a per-call
// table; the reference walks every (row, column) pair and evaluates each
// ln n! in place. Both must agree within the one sanctioned analysis
// tolerance on every seeded table, including the edge shapes the
// hypergeometric bounds care about: N = 1, all singletons, one cluster,
// heavily repeated cluster sizes, and clusters so large that
// a_i + b_j > N forces the lower bound of n_ij above 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/ami.h"
#include "testing/compare.h"
#include "testing/oracles.h"
#include "util/rng.h"

namespace wafp::testing {
namespace {

constexpr std::size_t kSeededTables = 240;

/// Labels with the given cluster sizes, in a seeded random order.
std::vector<int> labels_with_sizes(const std::vector<std::size_t>& sizes,
                                   util::Rng& rng) {
  std::vector<int> labels;
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    labels.insert(labels.end(), sizes[c], static_cast<int>(c));
  }
  for (std::size_t i = labels.size(); i > 1; --i) {
    std::swap(labels[i - 1], labels[rng.next_below(i)]);
  }
  return labels;
}

/// n labels drawn from a Zipf(1.1) law over `clusters` labels: a few large
/// clusters and a long tail of small ones, like the study's collated
/// partitions.
std::vector<int> zipf_labels(std::size_t n, std::size_t clusters,
                             util::Rng& rng) {
  std::vector<double> weights(clusters);
  for (std::size_t k = 0; k < clusters; ++k) {
    weights[k] = 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
  }
  const util::CategoricalSampler sampler(weights);
  std::vector<int> labels(n);
  for (int& label : labels) label = static_cast<int>(sampler.sample(rng));
  return labels;
}

std::vector<int> uniform_labels(std::size_t n, std::size_t clusters,
                                util::Rng& rng) {
  std::vector<int> labels(n);
  for (int& label : labels) label = static_cast<int>(rng.next_below(clusters));
  return labels;
}

/// Cluster sizes drawn from a small set, so most marginal values repeat.
std::vector<std::size_t> repeated_sizes(std::size_t n, util::Rng& rng) {
  static constexpr std::size_t kSizes[] = {1, 2, 2, 3, 3, 3, 5};
  std::vector<std::size_t> sizes;
  std::size_t left = n;
  while (left > 0) {
    const std::size_t s = std::min(left, kSizes[rng.next_below(7)]);
    sizes.push_back(s);
    left -= s;
  }
  return sizes;
}

/// One cluster holding `share` of n, the rest split uniformly.
std::vector<std::size_t> one_big_cluster(std::size_t n, double share,
                                         util::Rng& rng) {
  const auto big = std::max<std::size_t>(
      1, static_cast<std::size_t>(share * static_cast<double>(n)));
  std::vector<std::size_t> sizes = {big};
  std::size_t left = n - big;
  while (left > 0) {
    const std::size_t s = std::min<std::size_t>(left, 1 + rng.next_below(4));
    sizes.push_back(s);
    left -= s;
  }
  return sizes;
}

struct Table {
  std::string name;
  std::vector<int> a;
  std::vector<int> b;
};

std::vector<Table> edge_tables() {
  util::Rng rng(20260);
  std::vector<Table> tables;
  tables.push_back({"n1", {0}, {0}});
  tables.push_back({"n2_split", {0, 1}, {0, 0}});
  std::vector<int> singletons(64);
  for (std::size_t i = 0; i < singletons.size(); ++i) {
    singletons[i] = static_cast<int>(i);
  }
  tables.push_back({"singletons_both", singletons, singletons});
  tables.push_back(
      {"singletons_vs_zipf", singletons, zipf_labels(64, 12, rng)});
  const std::vector<int> one(90, 7);
  tables.push_back({"one_cluster_both", one, one});
  tables.push_back({"one_cluster_vs_uniform", one, uniform_labels(90, 9, rng)});
  tables.push_back({"one_cluster_vs_singletons",
                    std::vector<int>(64, 3), singletons});
  tables.push_back({"repeated_sizes", labels_with_sizes(repeated_sizes(200, rng), rng),
                    labels_with_sizes(repeated_sizes(200, rng), rng)});
  tables.push_back({"big_clusters_lo_above_1",
                    labels_with_sizes(one_big_cluster(150, 0.8, rng), rng),
                    labels_with_sizes(one_big_cluster(150, 0.7, rng), rng)});
  return tables;
}

/// Seeded tables of five shapes, rotating with the seed.
Table seeded_table(std::uint64_t seed) {
  util::Rng rng(seed * 7919 + 11);
  const std::size_t n = 1 + rng.next_below(260);
  const std::size_t k = 1 + rng.next_below(n);
  switch (seed % 5) {
    case 0:
      return {"uniform", uniform_labels(n, k, rng), uniform_labels(n, k, rng)};
    case 1:
      return {"zipf", zipf_labels(n, k, rng), zipf_labels(n, 1 + k / 2, rng)};
    case 2:
      return {"repeated", labels_with_sizes(repeated_sizes(n, rng), rng),
              labels_with_sizes(repeated_sizes(n, rng), rng)};
    case 3: {
      const double share_a = 0.5 + 0.45 * rng.next_double();
      const double share_b = 0.5 + 0.45 * rng.next_double();
      return {"big", labels_with_sizes(one_big_cluster(n, share_a, rng), rng),
              labels_with_sizes(one_big_cluster(n, share_b, rng), rng)};
    }
    default:
      return {"big_vs_zipf",
              labels_with_sizes(one_big_cluster(n, 0.9, rng), rng),
              zipf_labels(n, k, rng)};
  }
}

bool has_repeated_marginal(const std::vector<std::size_t>& sums) {
  std::vector<std::size_t> sorted = sums;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

/// True when some (a_i, b_j) pair has a_i + b_j > N + 1, i.e. the
/// hypergeometric lower bound on n_ij is above 1.
bool takes_lower_bound(const analysis::ContingencyTable& table) {
  const std::size_t max_a =
      *std::max_element(table.row_sums.begin(), table.row_sums.end());
  const std::size_t max_b =
      *std::max_element(table.col_sums.begin(), table.col_sums.end());
  return max_a + max_b > table.total + 1;
}

void expect_matches_oracle(const Table& t, const std::string& where) {
  const analysis::ContingencyTable table = analysis::build_contingency(t.a, t.b);
  const double fast = analysis::expected_mutual_information(table);
  const double ref = RefExpectedMutualInformation(table);
  EXPECT_TRUE(metric_close(fast, ref))
      << where << " (" << t.name << ", N=" << table.total << ", "
      << table.row_sums.size() << "x" << table.col_sums.size()
      << "): fast " << fast << " vs reference " << ref;
}

TEST(EmiOracleTest, EdgeShapesMatchReference) {
  for (const Table& t : edge_tables()) expect_matches_oracle(t, "edge");
}

TEST(EmiOracleTest, EdgeShapesCoverTheirBoundaries) {
  // The edge tables must really exercise what their names promise.
  std::map<std::string, analysis::ContingencyTable> by_name;
  for (const Table& t : edge_tables()) {
    by_name[t.name] = analysis::build_contingency(t.a, t.b);
  }
  const auto find = [&](const std::string& name) { return by_name.at(name); };
  EXPECT_EQ(find("n1").total, 1u);
  EXPECT_EQ(find("singletons_both").row_sums.size(), 64u);
  EXPECT_EQ(find("one_cluster_both").row_sums.size(), 1u);
  EXPECT_TRUE(has_repeated_marginal(find("repeated_sizes").row_sums));
  EXPECT_TRUE(takes_lower_bound(find("big_clusters_lo_above_1")));
}

TEST(EmiOracleTest, SingleClusterBothSidesIsZero) {
  const std::vector<int> one(40, 0);
  const auto table = analysis::build_contingency(one, one);
  EXPECT_EQ(analysis::expected_mutual_information(table), 0.0);
  EXPECT_EQ(RefExpectedMutualInformation(table), 0.0);
}

TEST(EmiOracleTest, SeededTablesMatchReference) {
  std::size_t repeated = 0;
  std::size_t lower_bound = 0;
  for (std::uint64_t seed = 0; seed < kSeededTables; ++seed) {
    const Table t = seeded_table(seed);
    expect_matches_oracle(t, "seed " + std::to_string(seed));
    const auto table = analysis::build_contingency(t.a, t.b);
    if (has_repeated_marginal(table.row_sums)) ++repeated;
    if (takes_lower_bound(table)) ++lower_bound;
  }
  // The seeded shapes keep both hard regimes well represented.
  EXPECT_GE(repeated, kSeededTables / 2);
  EXPECT_GE(lower_bound, kSeededTables / 5);
}

}  // namespace
}  // namespace wafp::testing

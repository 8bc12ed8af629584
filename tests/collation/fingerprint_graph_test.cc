#include "collation/fingerprint_graph.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace wafp::collation {
namespace {

util::Digest efp(int i) {
  return util::sha256("efp-" + std::to_string(i));
}

/// The paper's Fig. 4 example: 9 elementary fingerprints across 4 users.
///   U1 -- eFP1, eFP2, eFP3        \  cluster 1 (U1, U2 share eFP3)
///   U2 -- eFP3, eFP4, eFP5        /
///   U3 -- eFP6, eFP7              -- cluster 2 (unique)
///   U4 -- eFP8, eFP9              -- cluster 3 (unique)
FingerprintGraph build_fig4_graph() {
  FingerprintGraph graph;
  graph.add_observation(1, efp(1));
  graph.add_observation(1, efp(2));
  graph.add_observation(1, efp(3));
  graph.add_observation(2, efp(3));
  graph.add_observation(2, efp(4));
  graph.add_observation(2, efp(5));
  graph.add_observation(3, efp(6));
  graph.add_observation(3, efp(7));
  graph.add_observation(4, efp(8));
  graph.add_observation(4, efp(9));
  return graph;
}

TEST(FingerprintGraphTest, PaperFig4Example) {
  const FingerprintGraph graph = build_fig4_graph();
  EXPECT_EQ(graph.user_count(), 4u);
  EXPECT_EQ(graph.fingerprint_count(), 9u);
  // "we thus end up with 3 distinct fingerprints for the 4 users"
  EXPECT_EQ(graph.cluster_count(), 3u);
  EXPECT_TRUE(graph.same_cluster(1, 2));
  EXPECT_FALSE(graph.same_cluster(1, 3));
  EXPECT_FALSE(graph.same_cluster(3, 4));
}

TEST(FingerprintGraphTest, PaperFig4DynamicMerge) {
  // "consider a new user U5 who has elementary fingerprints eFP6 and eFP8.
  //  This merges existing second and third user clusters into one."
  FingerprintGraph graph = build_fig4_graph();
  graph.add_observation(5, efp(6));
  graph.add_observation(5, efp(8));
  EXPECT_EQ(graph.cluster_count(), 2u);
  EXPECT_TRUE(graph.same_cluster(3, 4));
  EXPECT_TRUE(graph.same_cluster(3, 5));
  EXPECT_FALSE(graph.same_cluster(1, 5));
}

TEST(FingerprintGraphTest, ClusterUserCounts) {
  const FingerprintGraph graph = build_fig4_graph();
  std::vector<std::size_t> counts = graph.cluster_user_counts();
  std::sort(counts.begin(), counts.end());
  EXPECT_EQ(counts, (std::vector<std::size_t>{1, 1, 2}));
}

TEST(FingerprintGraphTest, ExtractClusteringLabels) {
  const FingerprintGraph graph = build_fig4_graph();
  const std::vector<std::uint32_t> users = {1, 2, 3, 4};
  const Clustering clustering = graph.extract_clustering(users);
  ASSERT_EQ(clustering.labels.size(), 4u);
  EXPECT_EQ(clustering.num_clusters, 3);
  EXPECT_EQ(clustering.labels[0], clustering.labels[1]);  // U1, U2 collide
  EXPECT_NE(clustering.labels[0], clustering.labels[2]);
  EXPECT_NE(clustering.labels[2], clustering.labels[3]);
}

TEST(FingerprintGraphTest, UnseenUserGetsFreshLabel) {
  const FingerprintGraph graph = build_fig4_graph();
  const std::vector<std::uint32_t> users = {1, 99};
  const Clustering clustering = graph.extract_clustering(users);
  EXPECT_EQ(clustering.num_clusters, 2);
  EXPECT_NE(clustering.labels[0], clustering.labels[1]);
}

TEST(FingerprintGraphTest, RepeatObservationIsIdempotent) {
  FingerprintGraph graph;
  for (int i = 0; i < 10; ++i) graph.add_observation(1, efp(1));
  EXPECT_EQ(graph.cluster_count(), 1u);
  EXPECT_EQ(graph.fingerprint_count(), 1u);
}

TEST(FingerprintGraphTest, MatchFindsTrainingCluster) {
  const FingerprintGraph graph = build_fig4_graph();
  // Probe with one of U2's fingerprints: must land in U1/U2's component.
  const std::vector<util::Digest> probe = {efp(4)};
  const auto matched = graph.match(probe);
  ASSERT_TRUE(matched.has_value());
  EXPECT_EQ(*matched, *graph.user_component(2));
  EXPECT_EQ(*matched, *graph.user_component(1));
}

TEST(FingerprintGraphTest, MatchUnknownProbeFails) {
  const FingerprintGraph graph = build_fig4_graph();
  const std::vector<util::Digest> probe = {efp(1000)};
  EXPECT_FALSE(graph.match(probe).has_value());
}

TEST(FingerprintGraphTest, MatchMajorityVote) {
  const FingerprintGraph graph = build_fig4_graph();
  // Two hits in U3's cluster, one in U4's: majority wins.
  const std::vector<util::Digest> probe = {efp(6), efp(7), efp(8)};
  const auto matched = graph.match(probe);
  ASSERT_TRUE(matched.has_value());
  EXPECT_EQ(*matched, *graph.user_component(3));
}

TEST(FingerprintGraphTest, UserComponentForUnknownUser) {
  const FingerprintGraph graph = build_fig4_graph();
  EXPECT_FALSE(graph.user_component(12345).has_value());
}

TEST(FingerprintGraphTest, ScalesToManyUsers) {
  // §3.2's scalability claim: insertion stays cheap; sanity-check the
  // structure with 50k users x 3 observations.
  FingerprintGraph graph;
  for (std::uint32_t u = 0; u < 50000; ++u) {
    // Users share a platform fingerprint per group of 100 -> 500 clusters.
    graph.add_observation(u, efp(static_cast<int>(u % 500)));
    graph.add_observation(u, efp(static_cast<int>(1000000 + u)));  // unique
    graph.add_observation(u, efp(static_cast<int>(u % 500)));
  }
  EXPECT_EQ(graph.cluster_count(), 500u);
  EXPECT_TRUE(graph.same_cluster(0, 500));
  EXPECT_FALSE(graph.same_cluster(0, 1));
}

}  // namespace
}  // namespace wafp::collation

// Differential testing of the collation structures against brute-force
// oracles (src/testing/oracles.h): randomized op sequences drive the
// production structure and an O(V*E) recompute-from-scratch reference in
// lockstep, comparing cluster counts, membership queries, and the canonical
// component checksum at fixed checkpoints. 540 sequences total across the
// two structures — deterministic seeds, so a divergence is a replayable
// one-line reproducer.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "collation/expiring_graph.h"
#include "collation/fingerprint_graph.h"
#include "testing/oracles.h"
#include "util/rng.h"

namespace wafp::testing {
namespace {

constexpr std::size_t kUnionFindSequences = 260;
constexpr std::size_t kExpiringSequences = 280;
constexpr std::size_t kOpsPerSequence = 120;
constexpr std::size_t kCheckEvery = 30;

TEST(CollationOracleTest, FingerprintGraphMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= kUnionFindSequences; ++seed) {
    const std::vector<CollationOp> ops =
        make_op_sequence(seed, kOpsPerSequence, /*with_expiry=*/false);
    collation::FingerprintGraph graph;
    RefBipartiteGraph ref;
    util::Rng probe_rng(seed ^ 0x9E3779B97F4A7C15ULL);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const CollationOp& op = ops[i];
      graph.add_observation(op.user, test_digest(op.efp_id));
      ref.add_observation(op.user, test_digest(op.efp_id), op.timestamp);
      if ((i + 1) % kCheckEvery != 0 && i + 1 != ops.size()) continue;

      ASSERT_EQ(graph.cluster_count(), ref.cluster_count())
          << "seed " << seed << " op " << i;
      ASSERT_EQ(graph.user_count(), ref.active_user_count())
          << "seed " << seed << " op " << i;
      ASSERT_EQ(graph.fingerprint_count(), ref.active_fingerprint_count())
          << "seed " << seed << " op " << i;
      ASSERT_EQ(graph.component_checksum(), ref.component_checksum())
          << "seed " << seed << " op " << i
          << ": partition checksum diverged";
      for (int probe = 0; probe < 4; ++probe) {
        const auto a = static_cast<std::uint32_t>(probe_rng.next_below(48));
        const auto b = static_cast<std::uint32_t>(probe_rng.next_below(48));
        ASSERT_EQ(graph.same_cluster(a, b), ref.same_cluster(a, b))
            << "seed " << seed << " op " << i << " users " << a << "," << b;
      }
    }
  }
}

TEST(CollationOracleTest, ExpiringGraphMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= kExpiringSequences; ++seed) {
    const std::vector<CollationOp> ops =
        make_op_sequence(seed, kOpsPerSequence, /*with_expiry=*/true);
    collation::ExpiringFingerprintGraph graph(/*max_nodes=*/256);
    RefBipartiteGraph ref;
    util::Rng probe_rng(seed ^ 0xA5A5A5A5ULL);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const CollationOp& op = ops[i];
      if (op.kind == CollationOp::Kind::kExpire) {
        graph.expire_before(op.timestamp);
        ref.expire_before(op.timestamp);
      } else {
        graph.add_observation(op.user, test_digest(op.efp_id), op.timestamp);
        ref.add_observation(op.user, test_digest(op.efp_id), op.timestamp);
      }
      if ((i + 1) % kCheckEvery != 0 && i + 1 != ops.size()) continue;

      ASSERT_EQ(graph.observation_count(), ref.observation_count())
          << "seed " << seed << " op " << i;
      ASSERT_EQ(graph.active_user_count(), ref.active_user_count())
          << "seed " << seed << " op " << i;
      ASSERT_EQ(graph.cluster_count(), ref.cluster_count())
          << "seed " << seed << " op " << i;
      ASSERT_EQ(graph.live_observations(), ref.live_observations())
          << "seed " << seed << " op " << i << ": live edge set diverged";
      for (int probe = 0; probe < 4; ++probe) {
        const auto a = static_cast<std::uint32_t>(probe_rng.next_below(48));
        const auto b = static_cast<std::uint32_t>(probe_rng.next_below(48));
        ASSERT_EQ(graph.same_cluster(a, b), ref.same_cluster(a, b))
            << "seed " << seed << " op " << i << " users " << a << "," << b;
      }
    }
  }
}

}  // namespace
}  // namespace wafp::testing

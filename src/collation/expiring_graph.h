// ExpiringFingerprintGraph: the paper's collation graph (§3.2) with a data
// lifetime — observations older than a cutoff can be expired, after which
// clusters that were only held together by stale fingerprints fall apart.
// Retention limits (GDPR-style deletion, sliding analysis windows) demand
// edge *removal*, which a disjoint-set cannot undo; instead the forest is
// rebuilt from the surviving edges whenever an expiry erases something —
// O(max_nodes + edges) per such expiry, cheap at the sizes this graph
// serves (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <span>
#include <unordered_map>
#include <vector>

#include "collation/disjoint_set.h"
#include "util/hash.h"

namespace wafp::collation {

/// One live (user, fingerprint, timestamp) edge, as exported for
/// serialization. The timestamp is the *newest* observation of the pair.
struct ExpiringObservation {
  std::uint32_t user;
  util::Digest efp;
  std::uint64_t timestamp;

  friend bool operator==(const ExpiringObservation&,
                         const ExpiringObservation&) = default;
};

class ExpiringFingerprintGraph {
 public:
  /// `max_nodes` caps users + distinct fingerprints combined.
  explicit ExpiringFingerprintGraph(std::size_t max_nodes);

  /// Record that `user` exhibited `efp` at `timestamp`. Re-observing an
  /// existing pair refreshes its timestamp. Throws std::length_error when
  /// node capacity is exhausted.
  void add_observation(std::uint32_t user, const util::Digest& efp,
                       std::uint64_t timestamp);

  /// Drop every observation whose timestamp is *strictly less than*
  /// `cutoff` (exclusive bound: an observation stamped exactly at `cutoff`
  /// survives, so `expire_before(now - window)` keeps a closed
  /// [now-window, now] interval live). A pair refreshed by re-observation
  /// keeps only its *newest* timestamp — the stale expiry-queue entry from
  /// the earlier observation is skipped when popped, including the boundary
  /// case where the refresh lands exactly at `cutoff`. See
  /// tests/collation/expiring_graph_test.cc (CutoffIsExclusive,
  /// RefreshExactlyAtCutoffSurvives).
  void expire_before(std::uint64_t cutoff);

  /// Users currently holding at least one live observation.
  [[nodiscard]] std::size_t active_user_count() const;
  /// Live observations (edges).
  [[nodiscard]] std::size_t observation_count() const {
    return edge_timestamp_.size();
  }

  /// Collated clusters among active users.
  [[nodiscard]] std::size_t cluster_count() const;

  /// True iff both users are active and share a cluster.
  [[nodiscard]] bool same_cluster(std::uint32_t user_a,
                                  std::uint32_t user_b) const;

  /// Match a probe of fresh fingerprints against the live graph: returns a
  /// node handle inside the cluster the majority of known digests belong
  /// to. Compare handles with nodes_connected() — a handle is not a
  /// canonical id, since roots move whenever expiry rebuilds the forest.
  [[nodiscard]] std::optional<std::uint32_t> match(
      std::span<const util::Digest> probe) const;

  /// Node handle of a user's current cluster (nullopt if inactive).
  [[nodiscard]] std::optional<std::uint32_t> user_component(
      std::uint32_t user) const;

  /// Whether two node handles currently share a component.
  [[nodiscard]] bool nodes_connected(std::uint32_t a, std::uint32_t b) const {
    return forest_.connected(a, b);
  }

  /// Every live edge with its newest timestamp, sorted by (timestamp, user,
  /// digest) — a deterministic serialization image. Node handles are NOT
  /// exported; they are an internal allocation detail.
  [[nodiscard]] std::vector<ExpiringObservation> live_observations() const;

  /// Rebuild a graph from exported observations (replayed in the sorted
  /// order live_observations() produces, so the internal expiry queue ends
  /// up equivalent). The result answers every public query identically to
  /// the graph that was exported.
  [[nodiscard]] static ExpiringFingerprintGraph from_observations(
      std::size_t max_nodes, std::span<const ExpiringObservation> observations);

 private:
  struct PendingExpiry {
    std::uint64_t timestamp;
    std::uint32_t user_node;
    std::uint32_t efp_node;
    friend bool operator>(const PendingExpiry& a, const PendingExpiry& b) {
      return a.timestamp > b.timestamp;
    }
  };

  [[nodiscard]] std::uint32_t user_node(std::uint32_t user);
  [[nodiscard]] std::uint32_t efp_node(const util::Digest& efp);
  [[nodiscard]] std::uint32_t allocate_node();

  std::size_t max_nodes_;
  DisjointSet forest_;  // components of the live edges in edge_timestamp_
  std::unordered_map<std::uint32_t, std::uint32_t> user_nodes_;
  std::unordered_map<util::Digest, std::uint32_t> efp_nodes_;
  std::vector<std::uint32_t> node_degree_;  // live edges per node
  std::unordered_map<std::uint64_t, std::uint64_t> edge_timestamp_;
  std::priority_queue<PendingExpiry, std::vector<PendingExpiry>,
                      std::greater<>>
      expiry_queue_;
  std::uint32_t next_node_ = 0;
};

}  // namespace wafp::collation

// FingerprintGraph: the paper's core contribution (§3.2, Fig. 4) — an
// online bipartite graph between users and elementary fingerprints whose
// connected components are the *collated* fingerprints. Adding an
// observation may merge previously distinct clusters (the paper's dynamic
// collision example with user U5), which the disjoint-set handles in
// amortized near-constant time.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "collation/disjoint_set.h"
#include "util/hash.h"

namespace wafp::collation {

/// A clustering of users: dense labels (0..num_clusters-1) aligned with the
/// user order the graph was asked about.
struct Clustering {
  std::vector<int> labels;
  int num_clusters = 0;
};

class FingerprintGraph {
 public:
  /// Record that `user` exhibited elementary fingerprint `efp`; creates
  /// nodes on demand and merges components online.
  void add_observation(std::uint32_t user, const util::Digest& efp);

  [[nodiscard]] std::size_t user_count() const { return user_nodes_.size(); }
  [[nodiscard]] std::size_t fingerprint_count() const {
    return efp_nodes_.size();
  }

  /// Number of collated fingerprints = connected components.
  [[nodiscard]] std::size_t cluster_count() const {
    return nodes_.component_count();
  }

  /// True iff the two users currently share a collated fingerprint.
  [[nodiscard]] bool same_cluster(std::uint32_t user_a,
                                  std::uint32_t user_b) const;

  /// Number of *users* in each cluster (ignores fingerprint-only nodes),
  /// unordered.
  [[nodiscard]] std::vector<std::size_t> cluster_user_counts() const;

  /// Dense cluster labels for the given users, in order. Users never
  /// observed each get a fresh singleton label.
  [[nodiscard]] Clustering extract_clustering(
      std::span<const std::uint32_t> users) const;

  /// Match a probe (a set of elementary fingerprints from fresh
  /// iterations) against the graph: returns the component representative
  /// that the majority of known probe fingerprints belong to, or nullopt if
  /// none of them has ever been seen (§3.3 "fingerprint match").
  [[nodiscard]] std::optional<std::size_t> match(
      std::span<const util::Digest> probe) const;

  /// Component representative of a user (for comparing against match()).
  [[nodiscard]] std::optional<std::size_t> user_component(
      std::uint32_t user) const;

  /// Flatten the union-find so const queries (match, same_cluster,
  /// extract_clustering) stop path-compressing — required before querying
  /// one graph from multiple threads, since compression writes through a
  /// mutable member. Cheap: one linear pass.
  void freeze() const { nodes_.flatten(); }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Portable, deterministic image of the graph for snapshotting: node maps
  /// in sorted order plus each node's component root. Contains everything
  /// needed to rebuild a graph with identical connected components (the
  /// internal union-find tree shape is NOT preserved — only the partition,
  /// which is the semantically meaningful state).
  struct Export {
    std::vector<std::pair<std::uint32_t, std::size_t>> users;  // by user id
    std::vector<std::pair<util::Digest, std::size_t>> fingerprints;  // by hex
    std::vector<std::size_t> roots;  // roots[node] = component root of node
  };
  [[nodiscard]] Export export_state() const;

  /// Rebuild from an Export. Throws std::invalid_argument on inconsistent
  /// input (node ids out of range, duplicate ids).
  [[nodiscard]] static FingerprintGraph import_state(const Export& state);

  /// Order-independent checksum of the *partition*: each component hashes
  /// its sorted user ids and sorted fingerprint digests; component hashes
  /// are sorted and chained. Two graphs get equal checksums iff they hold
  /// the same users/fingerprints grouped into the same clusters —
  /// regardless of insertion order, union order, or tree shape. This is the
  /// crash-recovery parity witness (service snapshot + WAL replay must
  /// reproduce it bit-identically).
  [[nodiscard]] std::uint64_t component_checksum() const;

 private:
  std::size_t user_node(std::uint32_t user);
  std::size_t efp_node(const util::Digest& efp);

  DisjointSet nodes_;
  std::unordered_map<std::uint32_t, std::size_t> user_nodes_;
  std::unordered_map<util::Digest, std::size_t> efp_nodes_;
};

}  // namespace wafp::collation

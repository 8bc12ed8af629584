// Brute-force reference oracles for the collation layer.
//
// Each reference recomputes its answer from scratch (BFS over an explicit
// edge list, O(V·E) and proudly so) on every query, sharing no code with
// the production structures it checks — DisjointSet-backed
// FingerprintGraph, the HDT DynamicConnectivity, and
// ExpiringFingerprintGraph. A divergence under a randomized op sequence is
// therefore a real bug in one of the two sides, never a shared one.
//
// The one deliberately shared artifact is the *canonical checksum spec*:
// RefBipartiteGraph::component_checksum() re-implements the documented
// FingerprintGraph::component_checksum() recipe (per-component
// fnv1a64("comp") seed; sorted users mixed with tag 0xA0; sorted digests
// with tag 0xB0 per byte; sorted component hashes chained from
// fnv1a64("partition")) so the two sides can be compared through a single
// 64-bit witness — the same witness the collation service uses for
// crash-recovery parity.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "collation/expiring_graph.h"
#include "service/types.h"
#include "util/hash.h"

namespace wafp::testing {

/// Deterministic synthetic elementary fingerprint for oracle tests:
/// sha256("efp-<id>"). Equal ids always collide; distinct ids never do.
[[nodiscard]] util::Digest test_digest(std::uint64_t id);

/// Reference bipartite user <-> fingerprint graph. Edges carry the newest
/// observation timestamp (mirroring ExpiringFingerprintGraph's refresh
/// rule); with expiry unused it is also a FingerprintGraph reference.
class RefBipartiteGraph {
 public:
  void add_observation(std::uint32_t user, const util::Digest& efp,
                       std::uint64_t timestamp = 0);

  /// Drop edges with timestamp strictly below `cutoff` (exclusive bound,
  /// matching ExpiringFingerprintGraph::expire_before).
  void expire_before(std::uint64_t cutoff);

  [[nodiscard]] std::size_t observation_count() const { return edges_.size(); }
  [[nodiscard]] std::size_t active_user_count() const;
  [[nodiscard]] std::size_t active_fingerprint_count() const;

  /// Connected components of the live graph, recomputed by BFS.
  [[nodiscard]] std::size_t cluster_count() const;
  [[nodiscard]] bool same_cluster(std::uint32_t user_a,
                                  std::uint32_t user_b) const;

  /// Canonical partition checksum over the live graph (see file comment).
  [[nodiscard]] std::uint64_t component_checksum() const;

  /// Live edges sorted by (timestamp, user, digest) — directly comparable
  /// to ExpiringFingerprintGraph::live_observations().
  [[nodiscard]] std::vector<collation::ExpiringObservation> live_observations()
      const;

 private:
  struct Components;  // BFS scratch, defined in the .cc

  [[nodiscard]] Components compute_components() const;

  // (user, digest) -> newest timestamp. Ordered map: iteration order is
  // deterministic, so every recompute walks edges identically.
  std::map<std::pair<std::uint32_t, util::Digest>, std::uint64_t> edges_;
};

/// Reference for DynamicConnectivity: an explicit undirected edge set over
/// a fixed vertex count, with BFS connectivity per query.
class RefConnectivity {
 public:
  explicit RefConnectivity(std::size_t n) : adjacency_(n) {}

  [[nodiscard]] std::size_t vertex_count() const { return adjacency_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }
  [[nodiscard]] std::size_t component_count() const;

  /// Same no-op semantics as the production structure: false on self-loops
  /// and duplicates (insert) or absent edges (delete).
  bool insert_edge(std::uint32_t u, std::uint32_t v);
  bool delete_edge(std::uint32_t u, std::uint32_t v);

  [[nodiscard]] bool has_edge(std::uint32_t u, std::uint32_t v) const;
  [[nodiscard]] bool connected(std::uint32_t u, std::uint32_t v) const;
  [[nodiscard]] std::size_t component_size(std::uint32_t u) const;

 private:
  /// BFS from `start`, returning the reached vertex set.
  [[nodiscard]] std::vector<std::uint32_t> reach(std::uint32_t start) const;

  std::vector<std::vector<std::uint32_t>> adjacency_;
  std::size_t edge_count_ = 0;
};

/// One step of a randomized collation workload.
struct CollationOp {
  enum class Kind : std::uint8_t { kObserve, kExpire };

  Kind kind = Kind::kObserve;
  std::uint32_t user = 0;      // kObserve
  std::uint64_t efp_id = 0;    // kObserve: argument to test_digest()
  std::uint64_t timestamp = 0; // kObserve: stamp; kExpire: cutoff
};

/// Deterministic op sequence for `seed`: observations over small user and
/// fingerprint pools (small enough that components merge constantly, the
/// regime the paper's collation step lives in), timestamps nondecreasing,
/// with occasional re-observations of known pairs. When `with_expiry` is
/// set, ~8% of ops are sliding-window expire_before cutoffs.
[[nodiscard]] std::vector<CollationOp> make_op_sequence(std::uint64_t seed,
                                                        std::size_t length,
                                                        bool with_expiry);

/// Deterministic service-level submission trace: make_op_sequence (no
/// expiry) rendered as RawSubmissions — vector ids cycling through the 7
/// audio vectors, op timestamps, test_digest hex. Seeded, so every oracle
/// run replays a byte-identical trace.
[[nodiscard]] std::vector<service::RawSubmission> make_submission_trace(
    std::uint64_t seed, std::size_t length);

/// Parse exactly the digest the service's validator parses from `hex`
/// (64 lowercase hex chars), so oracle graphs see the service's bytes.
[[nodiscard]] util::Digest digest_from_hex(std::string_view hex);

/// Brute-force partition checksum of a trace after the explicit network
/// drop model (drop every `drop_every`th submission, 1-based ordinals;
/// 0 = lossless). The oracle for CollationService::component_checksum().
[[nodiscard]] std::uint64_t brute_force_submission_checksum(
    std::span<const service::RawSubmission> trace,
    std::uint64_t drop_every = 0);

}  // namespace wafp::testing

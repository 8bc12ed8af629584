#include "testing/oracles.h"

#include <algorithm>
#include <deque>
#include <string>

#include "fingerprint/vector_registry.h"
#include "util/portable_math.h"
#include "util/rng.h"
#include "util/stats.h"

namespace wafp::testing {

util::Digest test_digest(std::uint64_t id) {
  return util::sha256("efp-" + std::to_string(id));
}

// ---------------------------------------------------------------------------
// RefBipartiteGraph

/// Flattened component labelling of the live graph. Node ids are assigned
/// in sorted-edge order: users first (sorted), then digests (sorted).
struct RefBipartiteGraph::Components {
  std::vector<std::uint32_t> users;     // sorted live user ids
  std::vector<util::Digest> digests;    // sorted live digests
  std::vector<std::size_t> label;       // per node (users then digests)
  std::size_t count = 0;

  [[nodiscard]] std::size_t user_index(std::uint32_t user) const {
    const auto it = std::lower_bound(users.begin(), users.end(), user);
    return static_cast<std::size_t>(it - users.begin());
  }
  [[nodiscard]] std::size_t digest_node(const util::Digest& d) const {
    const auto it = std::lower_bound(digests.begin(), digests.end(), d);
    return users.size() + static_cast<std::size_t>(it - digests.begin());
  }
};

void RefBipartiteGraph::add_observation(std::uint32_t user,
                                        const util::Digest& efp,
                                        std::uint64_t timestamp) {
  auto [it, inserted] = edges_.try_emplace({user, efp}, timestamp);
  if (!inserted) it->second = std::max(it->second, timestamp);
}

void RefBipartiteGraph::expire_before(std::uint64_t cutoff) {
  for (auto it = edges_.begin(); it != edges_.end();) {
    if (it->second < cutoff) {
      it = edges_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t RefBipartiteGraph::active_user_count() const {
  return compute_components().users.size();
}

std::size_t RefBipartiteGraph::active_fingerprint_count() const {
  return compute_components().digests.size();
}

RefBipartiteGraph::Components RefBipartiteGraph::compute_components() const {
  Components c;
  for (const auto& [edge, ts] : edges_) {
    c.users.push_back(edge.first);
    c.digests.push_back(edge.second);
  }
  std::sort(c.users.begin(), c.users.end());
  c.users.erase(std::unique(c.users.begin(), c.users.end()), c.users.end());
  std::sort(c.digests.begin(), c.digests.end());
  c.digests.erase(std::unique(c.digests.begin(), c.digests.end()),
                  c.digests.end());

  const std::size_t n = c.users.size() + c.digests.size();
  std::vector<std::vector<std::size_t>> adjacency(n);
  for (const auto& [edge, ts] : edges_) {
    const std::size_t u = c.user_index(edge.first);
    const std::size_t d = c.digest_node(edge.second);
    adjacency[u].push_back(d);
    adjacency[d].push_back(u);
  }

  constexpr std::size_t kUnlabelled = static_cast<std::size_t>(-1);
  c.label.assign(n, kUnlabelled);
  for (std::size_t start = 0; start < n; ++start) {
    if (c.label[start] != kUnlabelled) continue;
    const std::size_t comp = c.count++;
    std::deque<std::size_t> queue{start};
    c.label[start] = comp;
    while (!queue.empty()) {
      const std::size_t node = queue.front();
      queue.pop_front();
      for (const std::size_t next : adjacency[node]) {
        if (c.label[next] == kUnlabelled) {
          c.label[next] = comp;
          queue.push_back(next);
        }
      }
    }
  }
  return c;
}

std::size_t RefBipartiteGraph::cluster_count() const {
  return compute_components().count;
}

bool RefBipartiteGraph::same_cluster(std::uint32_t user_a,
                                     std::uint32_t user_b) const {
  const Components c = compute_components();
  const std::size_t a = c.user_index(user_a);
  const std::size_t b = c.user_index(user_b);
  if (a >= c.users.size() || c.users[a] != user_a) return false;
  if (b >= c.users.size() || c.users[b] != user_b) return false;
  return c.label[a] == c.label[b];
}

std::uint64_t RefBipartiteGraph::component_checksum() const {
  const Components c = compute_components();
  // Canonical spec (see FingerprintGraph::component_checksum): users and
  // digests are already globally sorted here, so mixing in iteration order
  // matches the production side's sort-then-mix.
  std::vector<std::uint64_t> component_hash(c.count, util::fnv1a64("comp"));
  for (std::size_t i = 0; i < c.users.size(); ++i) {
    std::uint64_t& h = component_hash[c.label[i]];
    h = util::fnv1a64_mix(h, 0xA0u);
    h = util::fnv1a64_mix(h, c.users[i]);
  }
  for (std::size_t i = 0; i < c.digests.size(); ++i) {
    std::uint64_t& h = component_hash[c.label[c.users.size() + i]];
    h = util::fnv1a64_mix(h, 0xB0u);
    for (const std::uint8_t byte : c.digests[i].bytes) {
      h = util::fnv1a64_mix(h, byte);
    }
  }
  std::sort(component_hash.begin(), component_hash.end());
  std::uint64_t checksum = util::fnv1a64("partition");
  for (const std::uint64_t h : component_hash) {
    checksum = util::fnv1a64_mix(checksum, h);
  }
  return checksum;
}

std::vector<collation::ExpiringObservation>
RefBipartiteGraph::live_observations() const {
  std::vector<collation::ExpiringObservation> observations;
  observations.reserve(edges_.size());
  for (const auto& [edge, ts] : edges_) {
    observations.push_back({edge.first, edge.second, ts});
  }
  std::sort(observations.begin(), observations.end(),
            [](const collation::ExpiringObservation& x,
               const collation::ExpiringObservation& y) {
              if (x.timestamp != y.timestamp) return x.timestamp < y.timestamp;
              if (x.user != y.user) return x.user < y.user;
              return x.efp < y.efp;
            });
  return observations;
}

// ---------------------------------------------------------------------------
// Op sequences

std::vector<CollationOp> make_op_sequence(std::uint64_t seed,
                                          std::size_t length,
                                          bool with_expiry) {
  util::Rng rng(seed);
  // Small pools: collisions (shared fingerprints) and re-observations are
  // the interesting regime for collation, so force plenty of both.
  const std::uint32_t user_pool =
      8 + static_cast<std::uint32_t>(rng.next_below(33));
  const std::uint64_t efp_pool = 8 + rng.next_below(41);
  const std::uint64_t window = 16 + rng.next_below(64);

  std::vector<CollationOp> ops;
  ops.reserve(length);
  std::uint64_t clock = 1;
  for (std::size_t i = 0; i < length; ++i) {
    clock += rng.next_below(3);  // nondecreasing, frequently repeating
    CollationOp op;
    if (with_expiry && rng.next_bool(0.08)) {
      op.kind = CollationOp::Kind::kExpire;
      op.timestamp = clock > window ? clock - window : 0;
    } else {
      op.kind = CollationOp::Kind::kObserve;
      op.user = static_cast<std::uint32_t>(rng.next_below(user_pool));
      // A slim tail of unique fingerprints keeps singleton clusters around
      // (the paper's Table 1 long tail) amid the heavily shared pool.
      op.efp_id = rng.next_bool(0.9) ? rng.next_below(efp_pool)
                                     : 1'000'000 + i;
      op.timestamp = clock;
    }
    ops.push_back(op);
  }
  return ops;
}

std::vector<service::RawSubmission> make_submission_trace(std::uint64_t seed,
                                                          std::size_t length) {
  const std::vector<CollationOp> ops =
      make_op_sequence(seed, length, /*with_expiry=*/false);
  std::vector<service::RawSubmission> trace;
  trace.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    service::RawSubmission raw;
    raw.user = ops[i].user;
    // Cycle the full registry catalogue (audio, static, extension, and the
    // WASM compute family): the collation graph treats every vector class
    // identically, so the fuzz traces must too.
    raw.vector = static_cast<std::uint32_t>(
        i % fingerprint::VectorRegistry::instance().all().size());
    raw.timestamp = ops[i].timestamp;
    raw.efp_hex = test_digest(ops[i].efp_id).hex();
    trace.push_back(std::move(raw));
  }
  return trace;
}

util::Digest digest_from_hex(std::string_view hex) {
  const auto nibble = [](char c) -> std::uint8_t {
    return c <= '9' ? static_cast<std::uint8_t>(c - '0')
                    : static_cast<std::uint8_t>(c - 'a' + 10);
  };
  util::Digest d;
  for (std::size_t i = 0; i < d.bytes.size(); ++i) {
    d.bytes[i] = static_cast<std::uint8_t>((nibble(hex[2 * i]) << 4) |
                                           nibble(hex[2 * i + 1]));
  }
  return d;
}

std::uint64_t brute_force_submission_checksum(
    std::span<const service::RawSubmission> trace, std::uint64_t drop_every) {
  RefBipartiteGraph ref;
  std::uint64_t ordinal = 0;
  for (const service::RawSubmission& raw : trace) {
    ++ordinal;
    if (drop_every != 0 && ordinal % drop_every == 0) continue;
    ref.add_observation(raw.user, digest_from_hex(raw.efp_hex), 0);
  }
  return ref.component_checksum();
}

// ---------------------------------------------------------------------------
// RefExpectedMutualInformation

double RefExpectedMutualInformation(const analysis::ContingencyTable& table) {
  // Vinh et al. (2009), Eq. for E[MI] under the hypergeometric model:
  // sum over all (i, j) and all feasible nij of
  //   (nij/N) * ln(N*nij / (a_i*b_j)) * P_hypergeometric(nij; N, a_i, b_j).
  const std::size_t n = table.total;
  const auto nd = static_cast<double>(n);
  const double ln_n_fact = util::ln_factorial(n);

  double emi = 0.0;
  for (const std::size_t ai : table.row_sums) {
    for (const std::size_t bj : table.col_sums) {
      const std::size_t lo =
          ai + bj > n ? ai + bj - n : std::size_t{1};
      const std::size_t hi = std::min(ai, bj);
      for (std::size_t nij = std::max<std::size_t>(lo, 1); nij <= hi; ++nij) {
        const double term1 = static_cast<double>(nij) / nd;
        const double term2 =
            util::portable_log(nd * static_cast<double>(nij) /
                     (static_cast<double>(ai) * static_cast<double>(bj)));
        const double ln_p =
            util::ln_factorial(ai) + util::ln_factorial(bj) +
            util::ln_factorial(n - ai) + util::ln_factorial(n - bj) -
            ln_n_fact - util::ln_factorial(nij) -
            util::ln_factorial(ai - nij) - util::ln_factorial(bj - nij) -
            util::ln_factorial(n - ai - bj + nij);
        emi += term1 * term2 * util::portable_exp(ln_p);
      }
    }
  }
  return emi;
}

}  // namespace wafp::testing

#include "collation/fingerprint_graph.h"

#include <algorithm>
#include <stdexcept>

namespace wafp::collation {

std::size_t FingerprintGraph::user_node(std::uint32_t user) {
  const auto it = user_nodes_.find(user);
  if (it != user_nodes_.end()) return it->second;
  const std::size_t id = nodes_.add();
  user_nodes_.emplace(user, id);
  return id;
}

std::size_t FingerprintGraph::efp_node(const util::Digest& efp) {
  const auto it = efp_nodes_.find(efp);
  if (it != efp_nodes_.end()) return it->second;
  const std::size_t id = nodes_.add();
  efp_nodes_.emplace(efp, id);
  return id;
}

void FingerprintGraph::add_observation(std::uint32_t user,
                                       const util::Digest& efp) {
  nodes_.unite(user_node(user), efp_node(efp));
}

bool FingerprintGraph::same_cluster(std::uint32_t user_a,
                                    std::uint32_t user_b) const {
  const auto a = user_nodes_.find(user_a);
  const auto b = user_nodes_.find(user_b);
  if (a == user_nodes_.end() || b == user_nodes_.end()) return false;
  return nodes_.connected(a->second, b->second);
}

std::vector<std::size_t> FingerprintGraph::cluster_user_counts() const {
  std::unordered_map<std::size_t, std::size_t> counts;
  for (const auto& [user, node] : user_nodes_) {
    ++counts[nodes_.find(node)];
  }
  std::vector<std::size_t> result;
  result.reserve(counts.size());
  for (const auto& [root, count] : counts) result.push_back(count);
  return result;
}

Clustering FingerprintGraph::extract_clustering(
    std::span<const std::uint32_t> users) const {
  Clustering clustering;
  clustering.labels.reserve(users.size());
  std::unordered_map<std::size_t, int> dense;
  int next = 0;
  for (const std::uint32_t user : users) {
    const auto it = user_nodes_.find(user);
    if (it == user_nodes_.end()) {
      // Unseen user: fresh singleton cluster.
      clustering.labels.push_back(next++);
      continue;
    }
    const std::size_t root = nodes_.find(it->second);
    const auto [entry, inserted] = dense.try_emplace(root, next);
    if (inserted) ++next;
    clustering.labels.push_back(entry->second);
  }
  clustering.num_clusters = next;
  return clustering;
}

std::optional<std::size_t> FingerprintGraph::match(
    std::span<const util::Digest> probe) const {
  std::unordered_map<std::size_t, std::size_t> votes;
  for (const util::Digest& efp : probe) {
    const auto it = efp_nodes_.find(efp);
    if (it != efp_nodes_.end()) ++votes[nodes_.find(it->second)];
  }
  if (votes.empty()) return std::nullopt;
  const auto best = std::max_element(
      votes.begin(), votes.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return best->first;
}

std::optional<std::size_t> FingerprintGraph::user_component(
    std::uint32_t user) const {
  const auto it = user_nodes_.find(user);
  if (it == user_nodes_.end()) return std::nullopt;
  return nodes_.find(it->second);
}

FingerprintGraph::Export FingerprintGraph::export_state() const {
  Export state;
  state.users.assign(user_nodes_.begin(), user_nodes_.end());
  std::sort(state.users.begin(), state.users.end());
  state.fingerprints.assign(efp_nodes_.begin(), efp_nodes_.end());
  std::sort(state.fingerprints.begin(), state.fingerprints.end());
  state.roots.resize(nodes_.size());
  for (std::size_t i = 0; i < state.roots.size(); ++i) {
    state.roots[i] = nodes_.find(i);
  }
  return state;
}

FingerprintGraph FingerprintGraph::import_state(const Export& state) {
  if (state.users.size() + state.fingerprints.size() != state.roots.size()) {
    throw std::invalid_argument("FingerprintGraph::import_state: node count");
  }
  FingerprintGraph graph;
  for (std::size_t i = 0; i < state.roots.size(); ++i) {
    if (state.roots[i] >= state.roots.size()) {
      throw std::invalid_argument("FingerprintGraph::import_state: bad root");
    }
    graph.nodes_.add();
  }
  for (const auto& [user, node] : state.users) {
    if (node >= state.roots.size() ||
        !graph.user_nodes_.emplace(user, node).second) {
      throw std::invalid_argument("FingerprintGraph::import_state: bad user");
    }
  }
  for (const auto& [efp, node] : state.fingerprints) {
    if (node >= state.roots.size() ||
        !graph.efp_nodes_.emplace(efp, node).second) {
      throw std::invalid_argument("FingerprintGraph::import_state: bad efp");
    }
  }
  for (std::size_t i = 0; i < state.roots.size(); ++i) {
    graph.nodes_.unite(i, state.roots[i]);
  }
  return graph;
}

std::uint64_t FingerprintGraph::component_checksum() const {
  // Canonical per-component hash: members in sorted order, tagged by kind.
  std::unordered_map<std::size_t, std::uint64_t> component_hash;
  std::vector<std::pair<std::uint32_t, std::size_t>> users(
      user_nodes_.begin(), user_nodes_.end());
  std::sort(users.begin(), users.end());
  for (const auto& [user, node] : users) {
    auto [it, inserted] =
        component_hash.try_emplace(nodes_.find(node), util::fnv1a64("comp"));
    it->second = util::fnv1a64_mix(it->second, 0xA0u);
    it->second = util::fnv1a64_mix(it->second, user);
  }
  std::vector<std::pair<util::Digest, std::size_t>> efps(efp_nodes_.begin(),
                                                         efp_nodes_.end());
  std::sort(efps.begin(), efps.end());
  for (const auto& [efp, node] : efps) {
    auto [it, inserted] =
        component_hash.try_emplace(nodes_.find(node), util::fnv1a64("comp"));
    it->second = util::fnv1a64_mix(it->second, 0xB0u);
    for (const std::uint8_t byte : efp.bytes) {
      it->second = util::fnv1a64_mix(it->second, byte);
    }
  }
  std::vector<std::uint64_t> hashes;
  hashes.reserve(component_hash.size());
  for (const auto& [root, h] : component_hash) hashes.push_back(h);
  std::sort(hashes.begin(), hashes.end());
  std::uint64_t checksum = util::fnv1a64("partition");
  for (const std::uint64_t h : hashes) {
    checksum = util::fnv1a64_mix(checksum, h);
  }
  return checksum;
}

}  // namespace wafp::collation

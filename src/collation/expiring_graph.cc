#include "collation/expiring_graph.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace wafp::collation {
namespace {

std::uint64_t pack_edge(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

ExpiringFingerprintGraph::ExpiringFingerprintGraph(std::size_t max_nodes)
    : max_nodes_(max_nodes),
      forest_(max_nodes),
      node_degree_(max_nodes, 0) {}

std::uint32_t ExpiringFingerprintGraph::allocate_node() {
  if (next_node_ >= max_nodes_) {
    throw std::length_error("ExpiringFingerprintGraph: node capacity");
  }
  return next_node_++;
}

std::uint32_t ExpiringFingerprintGraph::user_node(std::uint32_t user) {
  const auto it = user_nodes_.find(user);
  if (it != user_nodes_.end()) return it->second;
  const std::uint32_t node = allocate_node();
  user_nodes_.emplace(user, node);
  return node;
}

std::uint32_t ExpiringFingerprintGraph::efp_node(const util::Digest& efp) {
  const auto it = efp_nodes_.find(efp);
  if (it != efp_nodes_.end()) return it->second;
  const std::uint32_t node = allocate_node();
  efp_nodes_.emplace(efp, node);
  return node;
}

void ExpiringFingerprintGraph::add_observation(std::uint32_t user,
                                               const util::Digest& efp,
                                               std::uint64_t timestamp) {
  const std::uint32_t un = user_node(user);
  const std::uint32_t en = efp_node(efp);
  const std::uint64_t key = pack_edge(un, en);

  const auto [it, inserted] = edge_timestamp_.try_emplace(key, timestamp);
  if (inserted) {
    forest_.unite(un, en);
    ++node_degree_[un];
    ++node_degree_[en];
  } else {
    // Refresh: keep the newest timestamp (the stale queue entry becomes a
    // no-op when popped).
    it->second = std::max(it->second, timestamp);
  }
  expiry_queue_.push({timestamp, un, en});
}

void ExpiringFingerprintGraph::expire_before(std::uint64_t cutoff) {
  // Exclusive cutoff: entries stamped exactly at `cutoff` stay. Each pop is
  // checked against the edge's *authoritative* timestamp in edge_timestamp_;
  // a queue entry is stale (skipped) when the pair was refreshed to a newer
  // timestamp, already expired, or duplicated at the same timestamp and
  // handled by an earlier pop.
  bool erased = false;
  while (!expiry_queue_.empty() && expiry_queue_.top().timestamp < cutoff) {
    const PendingExpiry entry = expiry_queue_.top();
    expiry_queue_.pop();
    const std::uint64_t key = pack_edge(entry.user_node, entry.efp_node);
    const auto it = edge_timestamp_.find(key);
    if (it == edge_timestamp_.end() || it->second != entry.timestamp) {
      continue;  // refreshed or already expired
    }
    edge_timestamp_.erase(it);
    --node_degree_[entry.user_node];
    --node_degree_[entry.efp_node];
    erased = true;
  }
  if (!erased) return;
  // A disjoint-set cannot split a component, so rebuild it from the
  // surviving edges.
  forest_ = DisjointSet(max_nodes_);
  for (const auto& [key, timestamp] : edge_timestamp_) {
    forest_.unite(key >> 32, key & 0xFFFFFFFFu);
  }
}

std::size_t ExpiringFingerprintGraph::active_user_count() const {
  std::size_t active = 0;
  for (const auto& [user, node] : user_nodes_) {
    active += node_degree_[node] > 0;
  }
  return active;
}

std::size_t ExpiringFingerprintGraph::cluster_count() const {
  // Group active user nodes by connectivity: each unmatched user probes the
  // representatives found so far (O(active * clusters); fine for the
  // analysis sizes this library targets).
  std::vector<std::uint32_t> representatives;
  for (const auto& [user, node] : user_nodes_) {
    if (node_degree_[node] == 0) continue;
    bool found = false;
    for (const std::uint32_t rep : representatives) {
      if (forest_.connected(rep, node)) {
        found = true;
        break;
      }
    }
    if (!found) representatives.push_back(node);
  }
  return representatives.size();
}

bool ExpiringFingerprintGraph::same_cluster(std::uint32_t user_a,
                                            std::uint32_t user_b) const {
  const auto a = user_nodes_.find(user_a);
  const auto b = user_nodes_.find(user_b);
  if (a == user_nodes_.end() || b == user_nodes_.end()) return false;
  if (node_degree_[a->second] == 0 || node_degree_[b->second] == 0) {
    return false;
  }
  return forest_.connected(a->second, b->second);
}

std::optional<std::uint32_t> ExpiringFingerprintGraph::match(
    std::span<const util::Digest> probe) const {
  std::vector<std::uint32_t> hits;
  for (const util::Digest& d : probe) {
    const auto it = efp_nodes_.find(d);
    if (it != efp_nodes_.end() && node_degree_[it->second] > 0) {
      hits.push_back(it->second);
    }
  }
  if (hits.empty()) return std::nullopt;
  // Majority component among hits (components identified by their first
  // probe representative).
  std::vector<std::pair<std::uint32_t, std::size_t>> groups;
  for (const std::uint32_t hit : hits) {
    bool grouped = false;
    for (auto& [rep, count] : groups) {
      if (forest_.connected(rep, hit)) {
        ++count;
        grouped = true;
        break;
      }
    }
    if (!grouped) groups.emplace_back(hit, 1);
  }
  const auto best = std::max_element(
      groups.begin(), groups.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return best->first;
}

std::vector<ExpiringObservation> ExpiringFingerprintGraph::live_observations()
    const {
  std::unordered_map<std::uint32_t, std::uint32_t> node_to_user;
  node_to_user.reserve(user_nodes_.size());
  for (const auto& [user, node] : user_nodes_) node_to_user.emplace(node, user);
  std::unordered_map<std::uint32_t, const util::Digest*> node_to_efp;
  node_to_efp.reserve(efp_nodes_.size());
  for (const auto& [efp, node] : efp_nodes_) node_to_efp.emplace(node, &efp);

  std::vector<ExpiringObservation> observations;
  observations.reserve(edge_timestamp_.size());
  for (const auto& [key, timestamp] : edge_timestamp_) {
    const auto a = static_cast<std::uint32_t>(key >> 32);
    const auto b = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
    // pack_edge sorted the endpoints; recover which side is the user.
    const auto user_it =
        node_to_user.contains(a) ? node_to_user.find(a) : node_to_user.find(b);
    const auto efp_it =
        node_to_efp.contains(a) ? node_to_efp.find(a) : node_to_efp.find(b);
    if (user_it == node_to_user.end() || efp_it == node_to_efp.end()) {
      // Nodes are never erased today, so every live edge should resolve;
      // skip rather than dereference end() if pruning is ever added.
      continue;
    }
    observations.push_back(
        {user_it->second, *efp_it->second, timestamp});
  }
  std::sort(observations.begin(), observations.end(),
            [](const ExpiringObservation& x, const ExpiringObservation& y) {
              if (x.timestamp != y.timestamp) return x.timestamp < y.timestamp;
              if (x.user != y.user) return x.user < y.user;
              return x.efp < y.efp;
            });
  return observations;
}

ExpiringFingerprintGraph ExpiringFingerprintGraph::from_observations(
    std::size_t max_nodes,
    std::span<const ExpiringObservation> observations) {
  ExpiringFingerprintGraph graph(max_nodes);
  for (const ExpiringObservation& obs : observations) {
    graph.add_observation(obs.user, obs.efp, obs.timestamp);
  }
  return graph;
}

std::optional<std::uint32_t> ExpiringFingerprintGraph::user_component(
    std::uint32_t user) const {
  const auto it = user_nodes_.find(user);
  if (it == user_nodes_.end() || node_degree_[it->second] == 0) {
    return std::nullopt;
  }
  return it->second;
}

}  // namespace wafp::collation

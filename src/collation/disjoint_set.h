// Disjoint-set (union-find) with union by size and path compression — the
// structure the paper recommends ([25]) for maintaining the fingerprint
// graph's connected components online. All operations are amortized
// near-constant (inverse Ackermann), comfortably under the O(log^2 u)
// bound the paper quotes for fully-dynamic connectivity. It backs both
// collation graphs; the expiring one rebuilds it from the surviving edges
// after an expiry rather than deleting edges (see DESIGN.md §7).
#pragma once

#include <cstddef>
#include <vector>

namespace wafp::collation {

class DisjointSet {
 public:
  explicit DisjointSet(std::size_t initial = 0);

  /// Add a new singleton element; returns its id.
  std::size_t add();

  [[nodiscard]] std::size_t size() const { return parent_.size(); }

  /// Representative of x's component (with path compression).
  [[nodiscard]] std::size_t find(std::size_t x) const;

  /// Point every element directly at its root. find() writes nothing on an
  /// already-flat forest, so after flatten() concurrent const queries from
  /// many threads are data-race-free (until the next add/unite).
  void flatten() const;

  /// Merge the components of a and b; returns true if they were distinct.
  bool unite(std::size_t a, std::size_t b);

  [[nodiscard]] bool connected(std::size_t a, std::size_t b) const;

  /// Number of components.
  [[nodiscard]] std::size_t component_count() const { return components_; }

  /// Number of elements in x's component.
  [[nodiscard]] std::size_t component_size(std::size_t x) const;

 private:
  mutable std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
  std::size_t components_ = 0;
};

}  // namespace wafp::collation

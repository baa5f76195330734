#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "vadapt/problem.hpp"

// The adapted Dijkstra of paper §4.2.3: single-source *widest* paths on a
// weighted directed graph, where the width of a path is the minimum edge
// capacity along it and we maximize that minimum ("select widest").
//
// The search runs over an adjacency-list view (positive-capacity edges
// only) with a lazy-deletion heap — stale queue entries are skipped on pop
// instead of scanning a dense row per settled vertex. The dense-matrix
// entry points below build a view on the fly; callers that update
// capacities between queries (greedy routing, repeated adaptation rounds)
// should keep an AdjacencyView + WidestPathCache alive instead.

namespace vw::vadapt {

struct WidestPathTree {
  std::vector<double> width;               ///< width[v]: best bottleneck from the source
  std::vector<std::optional<HostIndex>> parent;  ///< predecessor on the widest path
  HostIndex source = 0;

  /// Extract the widest path source -> dst; nullopt when unreachable
  /// (width <= 0 and no parent chain).
  std::optional<Path> path_to(HostIndex dst) const;
};

/// One outgoing edge of the adjacency view.
struct CapacityEdge {
  HostIndex to = 0;
  double capacity = 0;  ///< strictly positive while the edge is present
};

/// Sparse adjacency view over a capacity matrix: only edges with strictly
/// positive capacity exist. Neighbor lists stay sorted by target vertex so
/// the relaxation order — and therefore tie-breaking — matches the dense
/// row scan it replaced. Updates are O(degree).
class AdjacencyView {
 public:
  explicit AdjacencyView(const std::vector<std::vector<double>>& capacity);

  std::size_t size() const { return out_.size(); }
  const std::vector<CapacityEdge>& out(HostIndex u) const { return out_[u]; }

  /// Set the capacity of edge u -> v; <= 0 removes the edge.
  void update(HostIndex u, HostIndex v, double capacity);

  /// Current capacity of u -> v (0 when absent).
  double capacity(HostIndex u, HostIndex v) const;

 private:
  std::vector<std::vector<CapacityEdge>> out_;
};

/// Memoizes per-source widest-path trees over a view. The greedy heuristic
/// queries the same sources repeatedly (mapping step: every source; routing
/// step: one per demand) — the cache collapses repeats until the underlying
/// capacities change and `invalidate` is called.
class WidestPathCache {
 public:
  explicit WidestPathCache(const AdjacencyView& view);

  /// The memoized tree for `source` (computed on first use).
  const WidestPathTree& tree(HostIndex source);

  /// Drop every memoized tree (call after AdjacencyView::update).
  void invalidate();

  /// Scoped invalidation for a single edge-capacity change u -> v from
  /// `old_capacity` to `new_capacity` (values as seen by the view, i.e. <= 0
  /// means "edge absent"). Must be called BEFORE or AFTER the matching
  /// AdjacencyView::update — it only inspects the memoized trees, not the
  /// view. Drops exactly the trees whose widest-path structure the change
  /// can affect, so survivors remain bit-identical to a fresh recompute:
  ///
  ///  - decrease: only trees routing through u -> v (parent[v] == u) can
  ///    change — every other tree's paths avoid the edge and its widths are
  ///    reached without it.
  ///  - increase: a tree can only improve if the new edge offers a wider
  ///    route into v, i.e. min(width[u], new_capacity) >= width[v]. The >=
  ///    (not >) also drops equal-width ties, where a fresh recompute could
  ///    pick a different parent chain — survivors stay bit-identical.
  ///
  /// Returns the number of trees dropped.
  std::size_t invalidate_edge(HostIndex u, HostIndex v, double old_capacity,
                              double new_capacity);

  /// Whether a memoized tree for `source` is live.
  bool is_cached(HostIndex source) const;

  /// Number of live memoized trees.
  std::size_t cached_trees() const;

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

 private:
  const AdjacencyView* view_;
  std::vector<std::unique_ptr<WidestPathTree>> trees_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// Single-source widest paths over an adjacency view.
WidestPathTree widest_paths(const AdjacencyView& view, HostIndex source);

/// Single-source widest paths over an explicit capacity matrix
/// (capacity[u][v] <= 0 means "no usable edge").
WidestPathTree widest_paths(const std::vector<std::vector<double>>& capacity, HostIndex source);

/// Convenience: widest path between two vertices; nullopt when unreachable.
std::optional<Path> widest_path_between(const std::vector<std::vector<double>>& capacity,
                                        HostIndex src, HostIndex dst);

/// Bottleneck width of the widest path src -> dst; 0 when unreachable.
double widest_path_width(const std::vector<std::vector<double>>& capacity, HostIndex src,
                         HostIndex dst);

}  // namespace vw::vadapt

#include "vadapt/widest_path.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/check.hpp"

namespace vw::vadapt {

std::optional<Path> WidestPathTree::path_to(HostIndex dst) const {
  VW_REQUIRE(dst < parent.size(), "WidestPathTree::path_to: vertex ", dst, " out of range");
  if (dst == source) return Path{source};
  if (!parent[dst]) return std::nullopt;
  Path path;
  HostIndex at = dst;
  while (at != source) {
    path.push_back(at);
    at = *parent[at];
  }
  path.push_back(source);
  std::reverse(path.begin(), path.end());
  return path;
}

// --- adjacency view ----------------------------------------------------------

AdjacencyView::AdjacencyView(const std::vector<std::vector<double>>& capacity)
    : out_(capacity.size()) {
  const std::size_t n = capacity.size();
  VW_AUDIT(std::all_of(capacity.begin(), capacity.end(),
                       [n](const std::vector<double>& row) { return row.size() == n; }),
           "AdjacencyView: capacity matrix not square");
  for (HostIndex u = 0; u < n; ++u) {
    for (HostIndex v = 0; v < n; ++v) {
      if (u != v && capacity[u][v] > 0) out_[u].push_back({v, capacity[u][v]});
    }
  }
}

void AdjacencyView::update(HostIndex u, HostIndex v, double capacity) {
  VW_REQUIRE(u < out_.size() && v < out_.size(),
             "AdjacencyView::update: vertex out of range");
  auto& edges = out_[u];
  const auto it = std::lower_bound(edges.begin(), edges.end(), v,
                                   [](const CapacityEdge& e, HostIndex t) { return e.to < t; });
  const bool present = it != edges.end() && it->to == v;
  if (capacity > 0 && u != v) {
    if (present) {
      it->capacity = capacity;
    } else {
      edges.insert(it, {v, capacity});  // keeps the list sorted by target
    }
  } else if (present) {
    edges.erase(it);  // ordered erase preserves the dense-scan relaxation order
  }
}

double AdjacencyView::capacity(HostIndex u, HostIndex v) const {
  VW_REQUIRE(u < out_.size() && v < out_.size(),
             "AdjacencyView::capacity: vertex out of range");
  const auto& edges = out_[u];
  const auto it = std::lower_bound(edges.begin(), edges.end(), v,
                                   [](const CapacityEdge& e, HostIndex t) { return e.to < t; });
  return (it != edges.end() && it->to == v) ? it->capacity : 0.0;
}

// --- tree cache --------------------------------------------------------------

WidestPathCache::WidestPathCache(const AdjacencyView& view)
    : view_(&view), trees_(view.size()) {}

const WidestPathTree& WidestPathCache::tree(HostIndex source) {
  VW_REQUIRE(source < trees_.size(), "WidestPathCache::tree: source out of range");
  if (!trees_[source]) {
    trees_[source] = std::make_unique<WidestPathTree>(widest_paths(*view_, source));
    ++misses_;
  } else {
    ++hits_;
  }
  return *trees_[source];
}

void WidestPathCache::invalidate() {
  for (auto& tree : trees_) tree.reset();
}

std::size_t WidestPathCache::invalidate_edge(HostIndex u, HostIndex v, double old_capacity,
                                             double new_capacity) {
  VW_REQUIRE(u < trees_.size() && v < trees_.size(),
             "WidestPathCache::invalidate_edge: vertex out of range");
  // Normalize to the view's semantics: <= 0 means "edge absent".
  const double before = old_capacity > 0 ? old_capacity : 0.0;
  const double after = new_capacity > 0 ? new_capacity : 0.0;
  if (before == after || u == v) return 0;
  const bool decrease = after < before;
  std::size_t dropped = 0;
  for (auto& tree : trees_) {
    if (!tree) continue;
    bool stale;
    if (decrease) {
      // Only trees that actually route through u -> v can change.
      stale = tree->parent[v] && *tree->parent[v] == u;
    } else {
      // The widened edge can only matter if it offers a route into v at
      // least as wide as the tree's current best (>= kills ties too, so
      // surviving trees match a fresh recompute bit-for-bit).
      const double wu = tree->width[u];
      stale = wu > -std::numeric_limits<double>::infinity() &&
              std::min(wu, after) >= tree->width[v];
    }
    if (stale) {
      tree.reset();
      ++dropped;
    }
  }
  return dropped;
}

bool WidestPathCache::is_cached(HostIndex source) const {
  VW_REQUIRE(source < trees_.size(), "WidestPathCache::is_cached: out of range");
  return trees_[source] != nullptr;
}

std::size_t WidestPathCache::cached_trees() const {
  std::size_t live = 0;
  for (const auto& tree : trees_) {
    if (tree) ++live;
  }
  return live;
}

// --- the adapted Dijkstra ----------------------------------------------------

WidestPathTree widest_paths(const AdjacencyView& view, HostIndex source) {
  const std::size_t n = view.size();
  VW_REQUIRE(source < n, "widest_paths: source ", source, " out of range (n=", n, ")");
  WidestPathTree tree;
  tree.source = source;
  tree.width.assign(n, -std::numeric_limits<double>::infinity());
  tree.parent.assign(n, std::nullopt);
  tree.width[source] = std::numeric_limits<double>::infinity();

  using Item = std::pair<double, HostIndex>;  // (width, vertex), max-first
  std::priority_queue<Item> pq;
  pq.push({tree.width[source], source});

  while (!pq.empty()) {
    auto [w, u] = pq.top();
    pq.pop();
    // Lazy deletion: a vertex is re-pushed on every width improvement; any
    // entry whose width no longer matches the best known is stale. A vertex
    // popped at its best width is settled — no later relaxation can beat it.
    if (w != tree.width[u]) continue;
    for (const CapacityEdge& e : view.out(u)) {
      const double through = std::min(w, e.capacity);
      if (through > tree.width[e.to]) {
        tree.width[e.to] = through;
        tree.parent[e.to] = u;
        pq.push({through, e.to});
      }
    }
  }
  return tree;
}

WidestPathTree widest_paths(const std::vector<std::vector<double>>& capacity, HostIndex source) {
  const std::size_t n = capacity.size();
  VW_REQUIRE(source < n, "widest_paths: source ", source, " out of range (n=", n, ")");
  return widest_paths(AdjacencyView(capacity), source);
}

std::optional<Path> widest_path_between(const std::vector<std::vector<double>>& capacity,
                                        HostIndex src, HostIndex dst) {
  return widest_paths(capacity, src).path_to(dst);
}

double widest_path_width(const std::vector<std::vector<double>>& capacity, HostIndex src,
                         HostIndex dst) {
  const WidestPathTree tree = widest_paths(capacity, src);
  VW_REQUIRE(dst < tree.width.size(), "widest_path_width: dst ", dst, " out of range");
  if (src != dst && !tree.parent[dst]) return 0;
  const double w = tree.width[dst];
  const double result = std::isfinite(w) ? w : 0;
  // Widths seed VADAPT's residual-capacity reasoning; a negative width means
  // the relaxation visited an edge with negative "capacity".
  VW_ENSURE(result >= 0, "widest_path_width: negative width ", result);
  return result;
}

}  // namespace vw::vadapt

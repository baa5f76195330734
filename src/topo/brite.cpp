#include "topo/brite.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>
#include <queue>
#include <set>
#include <stdexcept>

namespace vw::topo {

BriteTopology::BriteTopology(const BriteParams& params, Rng rng) : n_(params.nodes) {
  if (n_ < 2) throw std::invalid_argument("BriteTopology: need at least 2 nodes");
  positions_.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    positions_.push_back({rng.uniform(0, params.plane_size), rng.uniform(0, params.plane_size)});
  }

  adj_.resize(n_);
  auto distance = [&](std::size_t a, std::size_t b) {
    const double dx = positions_[a].first - positions_[b].first;
    const double dy = positions_[a].second - positions_[b].second;
    return std::sqrt(dx * dx + dy * dy);
  };
  const double max_dist = params.plane_size * std::numbers::sqrt2;

  auto add_edge = [&](std::size_t a, std::size_t b) {
    BriteEdge e;
    e.a = a;
    e.b = b;
    e.bandwidth_bps = rng.uniform(params.bw_min_mbps, params.bw_max_mbps) * 1e6;
    e.latency_s = std::max(distance(a, b) * params.delay_per_unit_s, 1e-6);
    adj_[a].push_back({b, edges_.size()});
    adj_[b].push_back({a, edges_.size()});
    edges_.push_back(e);
  };

  // Incremental growth: node i >= 1 connects to min(out_degree, i) existing
  // nodes, sampled without replacement with Waxman-factor weights.
  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t targets = std::min(params.out_degree, i);
    std::set<std::size_t> chosen;
    while (chosen.size() < targets) {
      // Weighted sample over existing nodes not yet chosen.
      std::vector<double> weights(i, 0.0);
      double total = 0;
      for (std::size_t j = 0; j < i; ++j) {
        if (chosen.contains(j)) continue;
        weights[j] = params.alpha * std::exp(-distance(i, j) / (params.beta * max_dist));
        total += weights[j];
      }
      double u = rng.uniform(0.0, total);
      std::size_t pick = i - 1;
      for (std::size_t j = 0; j < i; ++j) {
        if (weights[j] <= 0) continue;
        u -= weights[j];
        if (u <= 0) {
          pick = j;
          break;
        }
      }
      while (chosen.contains(pick)) pick = (pick + 1) % i;  // numeric-edge fallback
      chosen.insert(pick);
    }
    for (std::size_t j : chosen) add_edge(i, j);
  }

  compute_routes();
}

void BriteTopology::compute_routes() {
  parent_edge_.assign(n_, std::vector<std::int32_t>(n_, -1));
  dist_.assign(n_, std::vector<double>(n_, std::numeric_limits<double>::infinity()));
  for (std::size_t src = 0; src < n_; ++src) {
    auto& dist = dist_[src];
    auto& parent_edge = parent_edge_[src];
    dist[src] = 0;
    using Item = std::pair<double, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    pq.push({0, src});
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (auto [v, eidx] : adj_[u]) {
        const double nd = d + edges_[eidx].latency_s;
        if (nd < dist[v]) {
          dist[v] = nd;
          parent_edge[v] = static_cast<std::int32_t>(eidx);
          pq.push({nd, v});
        }
      }
    }
  }
}

bool BriteTopology::connected() const {
  for (std::size_t v = 0; v < n_; ++v) {
    if (std::isinf(dist_[0][v])) return false;
  }
  return true;
}

std::pair<double, double> BriteTopology::path_metrics(std::size_t from, std::size_t to) const {
  if (from == to) return {std::numeric_limits<double>::infinity(), 0.0};
  if (std::isinf(dist_[from][to])) return {0.0, std::numeric_limits<double>::infinity()};
  const std::vector<std::int32_t>& parent_edge = parent_edge_[from];
  double bottleneck = std::numeric_limits<double>::infinity();
  std::size_t at = to;
  while (at != from) {
    const BriteEdge& e = edges_[static_cast<std::size_t>(parent_edge[at])];
    bottleneck = std::min(bottleneck, e.bandwidth_bps);
    at = e.a == at ? e.b : e.a;
  }
  return {bottleneck, dist_[from][to]};
}

vadapt::CapacityGraph BriteTopology::overlay_capacity_graph(std::size_t count, Rng& rng) const {
  if (count > n_) throw std::invalid_argument("overlay_capacity_graph: count > nodes");
  std::vector<std::size_t> all(n_);
  std::iota(all.begin(), all.end(), 0);
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(n_) - 1));
    std::swap(all[i], all[j]);
  }
  std::vector<net::NodeId> hosts;
  hosts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) hosts.push_back(static_cast<net::NodeId>(all[i]));

  vadapt::CapacityGraph graph(hosts);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t j = 0; j < count; ++j) {
      if (i == j) continue;
      const auto [bw, lat] = path_metrics(all[i], all[j]);
      graph.set_bandwidth(i, j, bw);
      graph.set_latency(i, j, lat);
    }
  }
  return graph;
}

BriteNetwork make_brite_network(sim::Simulator& sim, const BriteTopology& topo,
                                std::size_t host_count, Rng& rng,
                                const net::LinkConfig& access) {
  if (host_count > topo.node_count()) {
    throw std::invalid_argument("make_brite_network: host_count > nodes");
  }
  BriteNetwork out;
  out.network = std::make_unique<net::Network>(sim);
  net::Network& net = *out.network;

  out.routers.reserve(topo.node_count());
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    out.routers.push_back(net.add_router("brite-r" + std::to_string(i)));
  }
  for (const BriteEdge& e : topo.edges()) {
    net::LinkConfig cfg;
    cfg.bits_per_sec = e.bandwidth_bps;
    cfg.prop_delay = std::max<SimTime>(1, seconds(e.latency_s));
    net.add_link(out.routers[e.a], out.routers[e.b], cfg);
  }

  // Distinct attachment routers via the same partial Fisher-Yates used by
  // overlay_capacity_graph, so placement is a pure function of `rng`.
  std::vector<std::size_t> all(topo.node_count());
  std::iota(all.begin(), all.end(), 0);
  for (std::size_t i = 0; i < host_count; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(topo.node_count()) - 1));
    std::swap(all[i], all[j]);
  }
  net::LinkConfig access_cfg = access;
  access_cfg.prop_delay = std::max<SimTime>(1, access_cfg.prop_delay);
  out.hosts.reserve(host_count);
  out.host_router.reserve(host_count);
  for (std::size_t i = 0; i < host_count; ++i) {
    const net::NodeId h = net.add_host("brite-h" + std::to_string(i));
    net.add_link(h, out.routers[all[i]], access_cfg);
    out.hosts.push_back(h);
    out.host_router.push_back(all[i]);
  }
  net.compute_routes();
  return out;
}

}  // namespace vw::topo

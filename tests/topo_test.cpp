// Tests for the topology builders: BRITE Waxman generation properties and
// the packet-level / capacity-graph testbeds.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "sim/simulator.hpp"
#include "topo/brite.hpp"
#include "topo/testbed.hpp"

namespace vw::topo {
namespace {

TEST(BriteTest, GeneratesRequestedSize) {
  BriteParams params;
  params.nodes = 64;
  BriteTopology topo(params, Rng(1));
  EXPECT_EQ(topo.node_count(), 64u);
  // Incremental growth with out_degree 2: (n-1) joins, first adds 1 edge.
  EXPECT_EQ(topo.edges().size(), 2u * 64 - 3);
}

TEST(BriteTest, AlwaysConnected) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    BriteParams params;
    params.nodes = 128;
    BriteTopology topo(params, Rng(seed));
    EXPECT_TRUE(topo.connected()) << "seed " << seed;
  }
}

TEST(BriteTest, BandwidthsWithinConfiguredRange) {
  BriteParams params;
  params.nodes = 100;
  BriteTopology topo(params, Rng(2));
  for (const BriteEdge& e : topo.edges()) {
    EXPECT_GE(e.bandwidth_bps, params.bw_min_mbps * 1e6);
    EXPECT_LE(e.bandwidth_bps, params.bw_max_mbps * 1e6);
    EXPECT_GT(e.latency_s, 0);
  }
}

TEST(BriteTest, PathMetricsConsistent) {
  BriteParams params;
  params.nodes = 64;
  BriteTopology topo(params, Rng(3));
  const auto [bw, lat] = topo.path_metrics(0, 63);
  EXPECT_GT(bw, 0);
  EXPECT_GT(lat, 0);
  // Symmetric links and symmetric shortest-path costs.
  const auto [bw_r, lat_r] = topo.path_metrics(63, 0);
  EXPECT_DOUBLE_EQ(lat, lat_r);
}

// The route walk path_metrics replaced: shortest-latency Dijkstra keeping
// each node's predecessor, then per hop a scan of the predecessor's
// adjacency for the edge to it. Returns path_metrics(from, to) for every to.
std::vector<std::pair<double, double>> reference_path_metrics(const BriteTopology& topo,
                                                              std::size_t from) {
  const std::size_t n = topo.node_count();
  const std::vector<BriteEdge>& edges = topo.edges();
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj(n);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    adj[edges[i].a].push_back({edges[i].b, i});
    adj[edges[i].b].push_back({edges[i].a, i});
  }
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> parent(n, n);
  dist[from] = 0;
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.push({0, from});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (const auto& [v, e] : adj[u]) {
      const double nd = d + edges[e].latency_s;
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = u;
        pq.push({nd, v});
      }
    }
  }
  std::vector<std::pair<double, double>> out(n);
  for (std::size_t to = 0; to < n; ++to) {
    if (to == from) {
      out[to] = {std::numeric_limits<double>::infinity(), 0.0};
      continue;
    }
    if (std::isinf(dist[to])) {
      out[to] = {0.0, std::numeric_limits<double>::infinity()};
      continue;
    }
    double bottleneck = std::numeric_limits<double>::infinity();
    for (std::size_t at = to; at != from; at = parent[at]) {
      for (const auto& [peer, e] : adj[parent[at]]) {
        if (peer == at) {
          bottleneck = std::min(bottleneck, edges[e].bandwidth_bps);
          break;
        }
      }
    }
    out[to] = {bottleneck, dist[to]};
  }
  return out;
}

TEST(BriteTest, PathMetricsMatchReferenceWalkOnEveryPair) {
  for (const std::size_t nodes : {300u, 512u}) {
    BriteParams params;
    params.nodes = nodes;
    params.out_degree = nodes == 300 ? 3 : 2;
    const BriteTopology topo(params, Rng(nodes));
    for (std::size_t from = 0; from < nodes; ++from) {
      const auto ref = reference_path_metrics(topo, from);
      for (std::size_t to = 0; to < nodes; ++to) {
        const auto [bw, lat] = topo.path_metrics(from, to);
        ASSERT_EQ(bw, ref[to].first) << nodes << " nodes, " << from << "->" << to;
        ASSERT_EQ(lat, ref[to].second) << nodes << " nodes, " << from << "->" << to;
      }
    }
  }
}

TEST(BriteTest, OverlayCapacityGraphShape) {
  BriteParams params;
  params.nodes = 256;
  BriteTopology topo(params, Rng(4));
  Rng pick(5);
  const vadapt::CapacityGraph g = topo.overlay_capacity_graph(32, pick);
  EXPECT_EQ(g.size(), 32u);
  // Distinct hosts.
  std::set<net::NodeId> uniq(g.hosts().begin(), g.hosts().end());
  EXPECT_EQ(uniq.size(), 32u);
  // All pairwise entries populated and positive (graph is connected).
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = 0; j < 32; ++j) {
      if (i == j) continue;
      EXPECT_GT(g.bandwidth(i, j), 0) << i << "->" << j;
      EXPECT_GT(g.latency(i, j), 0);
    }
  }
}

TEST(BriteTest, DeterministicForSeed) {
  BriteParams params;
  params.nodes = 64;
  BriteTopology a(params, Rng(7));
  BriteTopology b(params, Rng(7));
  ASSERT_EQ(a.edges().size(), b.edges().size());
  for (std::size_t i = 0; i < a.edges().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.edges()[i].bandwidth_bps, b.edges()[i].bandwidth_bps);
  }
}

TEST(BriteTest, NetworkHostRoutesLeaveThroughTheirRouter) {
  // Every host is a stub on its own router: its routes are the router's
  // plus the access link at each end.
  BriteParams params;
  params.nodes = 200;
  BriteTopology topo(params, Rng(6));
  sim::Simulator sim;
  Rng pick(7);
  const net::LinkConfig access{1e9, micros(5), 256 * 1024};
  const BriteNetwork bn = make_brite_network(sim, topo, 200, pick, access);
  const net::Network& net = *bn.network;
  ASSERT_EQ(bn.hosts.size(), 200u);
  // Routes first, so a looping route fails before a path query walks it.
  for (std::size_t i = 0; i < bn.hosts.size(); ++i) {
    const net::NodeId hi = bn.hosts[i];
    const net::NodeId ri = bn.routers[bn.host_router[i]];
    ASSERT_EQ(net.next_hop(ri, hi), hi) << "router of host " << i;
    for (net::NodeId d = 0; d < net.node_count(); ++d) {
      if (d == hi) continue;
      ASSERT_EQ(net.next_hop(hi, d), ri) << "host " << i << " -> node " << d;
    }
  }
  for (std::size_t i = 0; i < bn.hosts.size(); ++i) {
    const net::NodeId hi = bn.hosts[i];
    const net::NodeId ri = bn.routers[bn.host_router[i]];
    for (std::size_t j = 0; j < bn.hosts.size(); ++j) {
      if (j == i) continue;
      const net::NodeId rj = bn.routers[bn.host_router[j]];
      ASSERT_EQ(net.path_prop_delay(hi, bn.hosts[j]),
                2 * access.prop_delay + net.path_prop_delay(ri, rj))
          << "hosts " << i << " -> " << j;
    }
  }
}

TEST(TestbedTest, LanTestbedTopology) {
  sim::Simulator sim;
  const LanTestbed tb = make_lan_testbed(sim);
  EXPECT_DOUBLE_EQ(tb.network->path_bottleneck_bps(tb.sender, tb.receiver), 100e6);
  EXPECT_DOUBLE_EQ(tb.network->path_bottleneck_bps(tb.cross_source, tb.receiver), 100e6);
  EXPECT_EQ(tb.network->next_hop(tb.sender, tb.receiver), tb.switch_node);
}

TEST(TestbedTest, WanTestbedBottleneckAndDelay) {
  sim::Simulator sim;
  const WanTestbed tb = make_wan_testbed(sim, 30e6, millis(25), 2);
  EXPECT_DOUBLE_EQ(tb.network->path_bottleneck_bps(tb.sender, tb.receiver), 30e6);
  EXPECT_EQ(tb.cross_sources.size(), 2u);
  // Cross traffic shares the bottleneck link.
  EXPECT_EQ(tb.network->next_hop(tb.cross_sources[0], tb.cross_sinks[0]), tb.router_a);
}

TEST(TestbedTest, NwuWmNetworkShape) {
  sim::Simulator sim;
  const NwuWmTestbed tb = make_nwu_wm_network(sim);
  EXPECT_EQ(tb.hosts().size(), 4u);
  // Intra-site fast, cross-site thin.
  EXPECT_GT(tb.network->path_bottleneck_bps(tb.minet1, tb.minet2), 50e6);
  EXPECT_LT(tb.network->path_bottleneck_bps(tb.minet1, tb.lr3), 20e6);
}

TEST(TestbedTest, NwuWmCapacityGraphMatchesFigure6) {
  const vadapt::CapacityGraph g = nwu_wm_capacity_graph();
  ASSERT_EQ(g.size(), 4u);
  // Intra-site links are an order of magnitude faster than cross-site.
  EXPECT_GT(g.bandwidth(0, 1), 80e6);
  EXPECT_GT(g.bandwidth(2, 3), 70e6);
  EXPECT_LT(g.bandwidth(0, 2), 15e6);
  EXPECT_GT(g.latency(0, 2), g.latency(0, 1));
}

TEST(TestbedTest, ChallengeScenarioStructure) {
  const ChallengeScenario sc = make_challenge_scenario();
  EXPECT_EQ(sc.graph.size(), 6u);
  EXPECT_EQ(sc.n_vms, 4u);
  EXPECT_EQ(sc.demands.size(), 8u);  // 6 heavy + 2 light
  // Domain 2 is faster internally than domain 1; inter-domain is thin.
  EXPECT_GT(sc.graph.bandwidth(3, 4), sc.graph.bandwidth(0, 1));
  EXPECT_LT(sc.graph.bandwidth(0, 3), sc.graph.bandwidth(0, 1));
}

TEST(TestbedTest, ChallengeNetworkPacketLevel) {
  sim::Simulator sim;
  const ChallengeNetwork tb = make_challenge_network(sim);
  EXPECT_EQ(tb.hosts().size(), 6u);
  EXPECT_DOUBLE_EQ(
      tb.network->path_bottleneck_bps(tb.domain2_hosts[0], tb.domain2_hosts[1]), 1000e6);
  EXPECT_DOUBLE_EQ(
      tb.network->path_bottleneck_bps(tb.domain1_hosts[0], tb.domain2_hosts[0]), 10e6);
}

}  // namespace
}  // namespace vw::topo

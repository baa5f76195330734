// Unit tests for the physical network substrate: link serialization and
// propagation timing, drop-tail queueing, routing, taps, endpoint delay
// emulation and the SNMP-style link probe.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/probe.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace vw::net {
namespace {

Packet make_packet(NodeId src, NodeId dst, std::uint32_t payload) {
  Packet p;
  p.flow = FlowKey{src, dst, 1000, 2000, Protocol::kUdp};
  p.payload_bytes = payload;
  p.header_bytes = 40;
  return p;
}

struct TwoHosts {
  sim::Simulator sim;
  Network net{sim};
  NodeId a, b;

  explicit TwoHosts(const LinkConfig& cfg = {}) {
    a = net.add_host("a");
    b = net.add_host("b");
    net.add_link(a, b, cfg);
    net.compute_routes();
  }
};

TEST(NetworkTest, DeliveryTimeIsSerializationPlusPropagation) {
  LinkConfig cfg;
  cfg.bits_per_sec = 10e6;
  cfg.prop_delay = millis(2);
  TwoHosts env(cfg);
  SimTime delivered_at = -1;
  env.net.set_host_stack(env.b, [&](Packet&&) { delivered_at = env.sim.now(); });
  env.net.send(make_packet(env.a, env.b, 1210));  // 1250B on wire = 1ms at 10Mbps
  env.sim.run();
  EXPECT_EQ(delivered_at, millis(3));
}

TEST(NetworkTest, BackToBackPacketsQueue) {
  LinkConfig cfg;
  cfg.bits_per_sec = 10e6;
  cfg.prop_delay = 0;
  TwoHosts env(cfg);
  std::vector<SimTime> arrivals;
  env.net.set_host_stack(env.b, [&](Packet&&) { arrivals.push_back(env.sim.now()); });
  for (int i = 0; i < 3; ++i) env.net.send(make_packet(env.a, env.b, 1210));
  env.sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], millis(1));
  EXPECT_EQ(arrivals[1], millis(2));
  EXPECT_EQ(arrivals[2], millis(3));
}

TEST(NetworkTest, DropTailWhenQueueFull) {
  LinkConfig cfg;
  cfg.bits_per_sec = 1e6;  // slow: queue builds instantly
  cfg.queue_limit_bytes = 3000;
  TwoHosts env(cfg);
  int delivered = 0;
  env.net.set_host_stack(env.b, [&](Packet&&) { ++delivered; });
  for (int i = 0; i < 10; ++i) env.net.send(make_packet(env.a, env.b, 1210));
  env.sim.run();
  EXPECT_EQ(delivered, 2);  // 2 x 1250 fits in 3000, the rest dropped
  EXPECT_EQ(env.net.packets_dropped(), 8u);
}

TEST(NetworkTest, PacketsDeliveredCountsHostDeliveriesIncludingLoopback) {
  TwoHosts env;
  int at_a = 0;
  int at_b = 0;
  env.net.set_host_stack(env.a, [&](Packet&&) { ++at_a; });
  env.net.set_host_stack(env.b, [&](Packet&&) { ++at_b; });
  for (int i = 0; i < 3; ++i) env.net.send(make_packet(env.a, env.b, 500));
  env.net.send(make_packet(env.b, env.a, 500));
  env.net.send(make_packet(env.a, env.a, 500));  // loopback
  env.sim.run();
  EXPECT_EQ(at_a, 2);
  EXPECT_EQ(at_b, 3);
  EXPECT_EQ(env.net.packets_delivered(), 5u);

  // A packet offered to a down link never reaches a host stack, so it is
  // not counted as delivered.
  env.net.set_link_down(env.a, env.b, true);
  env.net.send(make_packet(env.a, env.b, 500));
  env.sim.run();
  EXPECT_EQ(at_b, 3);
  EXPECT_EQ(env.net.packets_delivered(), 5u);
}

TEST(NetworkTest, MultiHopRouting) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  const NodeId r1 = net.add_router("r1");
  const NodeId r2 = net.add_router("r2");
  const NodeId b = net.add_host("b");
  LinkConfig cfg;
  cfg.prop_delay = millis(1);
  net.add_link(a, r1, cfg);
  net.add_link(r1, r2, cfg);
  net.add_link(r2, b, cfg);
  net.compute_routes();

  EXPECT_EQ(net.next_hop(a, b), r1);
  EXPECT_EQ(net.next_hop(r1, b), r2);
  EXPECT_EQ(net.path_prop_delay(a, b), millis(3));

  bool got = false;
  net.set_host_stack(b, [&](Packet&& p) {
    got = true;
    EXPECT_EQ(p.flow.src, a);
  });
  net.send(make_packet(a, b, 100));
  sim.run();
  EXPECT_TRUE(got);
}

TEST(NetworkTest, RoutingPrefersLowerLatency) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  const NodeId fast = net.add_router("fast");
  const NodeId slow = net.add_router("slow");
  const NodeId b = net.add_host("b");
  LinkConfig fast_cfg;
  fast_cfg.prop_delay = millis(1);
  LinkConfig slow_cfg;
  slow_cfg.prop_delay = millis(10);
  net.add_link(a, fast, fast_cfg);
  net.add_link(fast, b, fast_cfg);
  net.add_link(a, slow, slow_cfg);
  net.add_link(slow, b, slow_cfg);
  net.compute_routes();
  EXPECT_EQ(net.next_hop(a, b), fast);
}

TEST(NetworkTest, PathBottleneck) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  const NodeId r = net.add_router("r");
  const NodeId b = net.add_host("b");
  LinkConfig wide;
  wide.bits_per_sec = 100e6;
  LinkConfig narrow;
  narrow.bits_per_sec = 10e6;
  net.add_link(a, r, wide);
  net.add_link(r, b, narrow);
  net.compute_routes();
  EXPECT_DOUBLE_EQ(net.path_bottleneck_bps(a, b), 10e6);
}

TEST(NetworkTest, ChannelLookupIsIndependentOfRoutes) {
  // A direct a-b link that routing avoids: the 1 ms + 1 ms detour via r is
  // shorter than the 10 ms link, so the route's first hop is r while the
  // channel a->b still exists and must still be found.
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  const NodeId r = net.add_router("r");
  LinkConfig direct;
  direct.prop_delay = millis(10);
  LinkConfig detour;
  detour.prop_delay = millis(1);
  net.add_link(a, b, direct);
  net.add_link(a, r, detour);
  net.add_link(r, b, detour);
  EXPECT_TRUE(net.has_channel(a, b));

  net.compute_routes();
  EXPECT_EQ(net.next_hop(a, b), r);
  EXPECT_EQ(net.channel(a, b).from(), a);
  EXPECT_EQ(net.channel(a, b).to(), b);
  EXPECT_EQ(net.channel(a, b).prop_delay(), millis(10));
  EXPECT_TRUE(net.has_channel(a, b));
  EXPECT_EQ(net.path_prop_delay(a, b), millis(2));

  net.add_node("late", false);  // invalidates the routes, not the links
  EXPECT_TRUE(net.has_channel(a, b));
  EXPECT_EQ(net.channel(a, b).to(), b);
}

TEST(NetworkTest, EqualCostPathsBreakTiesByNodeIdAndPathQueriesFollowRoutes) {
  // A diamond of equal delays. The higher-id router's links are added
  // first, so the tie-break cannot come from link order.
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  const NodeId low = net.add_router("low");
  const NodeId high = net.add_router("high");
  const NodeId b = net.add_host("b");
  LinkConfig cfg;
  cfg.prop_delay = millis(1);
  net.add_link(a, high, cfg);
  net.add_link(high, b, cfg);
  net.add_link(a, low, cfg);
  net.add_link(low, b, cfg);

  // a == b needs no routes.
  EXPECT_EQ(net.path_prop_delay(a, a), 0);
  EXPECT_EQ(net.path_bottleneck_bps(a, a), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(net.path_up(a, a));

  net.compute_routes();
  EXPECT_EQ(net.next_hop(a, b), low);
  EXPECT_EQ(net.next_hop(b, a), low);
  EXPECT_EQ(net.next_hop(a, a), kInvalidNode);
  EXPECT_EQ(net.path_prop_delay(a, b), millis(2));
  EXPECT_TRUE(net.path_up(a, b));
  EXPECT_EQ(net.path_prop_delay(b, b), 0);
  EXPECT_EQ(net.path_bottleneck_bps(b, b), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(net.path_up(b, b));

  // Routing is static: a down link on the routed hop kills the path and
  // leaves the route where it was, even though the other arm is up.
  net.set_link_down(low, b, true);
  EXPECT_EQ(net.next_hop(a, b), low);
  EXPECT_FALSE(net.path_up(a, b));
  EXPECT_FALSE(net.path_up(b, a));
  EXPECT_TRUE(net.path_up(a, high));
  net.set_link_down(low, b, false);
  EXPECT_TRUE(net.path_up(a, b));

  // A bad node id throws rather than reading outside the table.
  const NodeId bad = 99;
  EXPECT_THROW(net.next_hop(bad, b), std::out_of_range);
  EXPECT_THROW(net.path_prop_delay(a, bad), std::out_of_range);
}

struct RefLink {
  NodeId a, b;
  SimTime delay;
};

// The plain search that compute_routes folds stubs out of: Dijkstra from
// every source over every link, with the same weights and (dist, node) pop
// order, recording the first hop's node.
std::vector<std::vector<NodeId>> full_search_next_hops(std::size_t n,
                                                       const std::vector<RefLink>& links) {
  std::vector<std::vector<std::pair<NodeId, SimTime>>> adj(n);
  for (const RefLink& l : links) {
    adj[l.a].push_back({l.b, l.delay + micros(1)});
    adj[l.b].push_back({l.a, l.delay + micros(1)});
  }
  std::vector<std::vector<NodeId>> hop(n, std::vector<NodeId>(n, kInvalidNode));
  for (NodeId src = 0; src < n; ++src) {
    std::vector<SimTime> dist(n, std::numeric_limits<SimTime>::max());
    using Item = std::pair<SimTime, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[src] = 0;
    pq.push({0, src});
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (auto [v, w] : adj[u]) {
        if (d + w < dist[v]) {
          dist[v] = d + w;
          hop[src][v] = (u == src) ? v : hop[src][u];
          pq.push({d + w, v});
        }
      }
    }
  }
  return hop;
}

TEST(NetworkTest, StubFoldedRoutesMatchFullSearch) {
  // Seeded random graphs: a random core, stubs on it, stub chains
  // (x - y - core), isolated nodes and lone two-node links, with roles
  // dealt to shuffled ids and delays drawn with ties and zeros.
  const SimTime delays[] = {0, 0, micros(1), micros(1), micros(2), micros(7)};
  int stubs = 0, chains = 0, isolated = 0, pairs = 0;
  std::size_t pairs_checked = 0;
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    Rng rng(seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 32));
    std::vector<NodeId> ids(n);
    std::iota(ids.begin(), ids.end(), NodeId{0});
    for (std::size_t i = n - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i)));
      std::swap(ids[i], ids[j]);
    }
    std::vector<RefLink> links;
    auto link = [&](NodeId a, NodeId b) { links.push_back({a, b, delays[rng.uniform_int(0, 5)]}); };
    const auto core = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n)));
    const double density = rng.uniform(0.1, 0.6);
    for (std::size_t i = 0; i < core; ++i) {
      for (std::size_t j = i + 1; j < core; ++j) {
        if (rng.chance(density)) link(ids[i], ids[j]);
      }
    }
    auto core_node = [&] {
      return ids[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(core) - 1))];
    };
    for (std::size_t i = core; i < n; ++i) {
      const auto role = rng.uniform_int(0, 3);
      if (role == 0 && core > 0) {
        link(ids[i], core_node());
        ++stubs;
      } else if (role == 1 && core > 0 && i + 1 < n) {
        link(ids[i], core_node());
        link(ids[i + 1], ids[i]);
        ++chains;
        ++i;
      } else if (role == 2 && i + 1 < n) {
        link(ids[i], ids[i + 1]);
        ++pairs;
        ++i;
      } else {
        ++isolated;
      }
    }

    sim::Simulator sim;
    Network net(sim);
    for (std::size_t i = 0; i < n; ++i) net.add_node("n" + std::to_string(i), rng.chance(0.5));
    for (const RefLink& l : links) {
      LinkConfig cfg;
      cfg.prop_delay = l.delay;
      net.add_link(l.a, l.b, cfg);
    }
    net.compute_routes();
    const auto want = full_search_next_hops(n, links);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId d = 0; d < n; ++d) {
        ASSERT_EQ(net.next_hop(a, d), want[a][d]) << "seed " << seed << ": " << a << " -> " << d;
        ++pairs_checked;
      }
    }
  }
  EXPECT_GT(stubs, 0);
  EXPECT_GT(chains, 0);
  EXPECT_GT(isolated, 0);
  EXPECT_GT(pairs, 0);
  EXPECT_GT(pairs_checked, 50'000u);
}

TEST(NetworkTest, StubThatGainsALinkBecomesCore) {
  // Build, route, grow, route again: a host on router a, then a router b
  // reachable only through that host. Routes are asserted before the path
  // queries walk them, so a looping route fails instead of hanging.
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_router("a");
  const NodeId c = net.add_router("c");
  const NodeId h = net.add_host("h");
  LinkConfig cfg;
  cfg.prop_delay = millis(1);
  net.add_link(a, c, cfg);
  net.add_link(h, a, cfg);
  net.compute_routes();
  ASSERT_EQ(net.next_hop(h, c), a);
  ASSERT_EQ(net.next_hop(c, h), a);
  ASSERT_EQ(net.next_hop(a, h), h);
  EXPECT_TRUE(net.path_up(h, c));

  // Static routing: the dead access link kills h's paths, not its routes.
  net.set_link_down(h, a, true);
  EXPECT_FALSE(net.path_up(h, c));
  EXPECT_FALSE(net.path_up(c, h));
  ASSERT_EQ(net.next_hop(h, c), a);
  ASSERT_EQ(net.next_hop(c, h), a);
  net.set_link_down(h, a, false);
  EXPECT_TRUE(net.path_up(h, c));

  const NodeId b = net.add_router("b");
  net.add_link(h, b, cfg);
  net.compute_routes();
  ASSERT_EQ(net.next_hop(a, b), h);
  ASSERT_EQ(net.next_hop(c, b), a);
  ASSERT_EQ(net.next_hop(h, b), b);
  ASSERT_EQ(net.next_hop(b, c), h);
  ASSERT_EQ(net.next_hop(h, c), a);
  EXPECT_EQ(net.path_prop_delay(c, b), millis(3));
  EXPECT_EQ(net.path_prop_delay(b, c), millis(3));
}

TEST(NetworkTest, OutgoingTapFiresAtSerializationCompletion) {
  LinkConfig cfg;
  cfg.bits_per_sec = 10e6;
  cfg.prop_delay = millis(5);
  TwoHosts env(cfg);
  SimTime tap_time = -1;
  env.net.add_host_tap(env.a, [&](const TapEvent& ev) {
    if (ev.direction == TapDirection::kOutgoing) tap_time = ev.timestamp;
  });
  env.net.send(make_packet(env.a, env.b, 1210));
  env.sim.run();
  EXPECT_EQ(tap_time, millis(1));  // before propagation completes
}

TEST(NetworkTest, IncomingTapFiresAtDelivery) {
  LinkConfig cfg;
  cfg.bits_per_sec = 10e6;
  cfg.prop_delay = millis(5);
  TwoHosts env(cfg);
  SimTime tap_time = -1;
  env.net.add_host_tap(env.b, [&](const TapEvent& ev) {
    if (ev.direction == TapDirection::kIncoming) tap_time = ev.timestamp;
  });
  env.net.send(make_packet(env.a, env.b, 1210));
  env.sim.run();
  EXPECT_EQ(tap_time, millis(6));
}

TEST(NetworkTest, RemovedTapStopsFiring) {
  TwoHosts env;
  int count = 0;
  const TapId id = env.net.add_host_tap(env.a, [&](const TapEvent&) { ++count; });
  env.net.send(make_packet(env.a, env.b, 100));
  env.sim.run();
  const int after_first = count;
  EXPECT_GT(after_first, 0);
  env.net.remove_host_tap(env.a, id);
  env.net.send(make_packet(env.a, env.b, 100));
  env.sim.run();
  EXPECT_EQ(count, after_first);
}

TEST(NetworkTest, EndpointDelayEmulation) {
  LinkConfig cfg;
  cfg.bits_per_sec = 10e6;
  cfg.prop_delay = 0;
  TwoHosts env(cfg);
  env.net.add_endpoint_delay(env.a, env.b, millis(25));
  SimTime delivered_at = -1;
  env.net.set_host_stack(env.b, [&](Packet&&) { delivered_at = env.sim.now(); });
  env.net.send(make_packet(env.a, env.b, 1210));
  env.sim.run();
  EXPECT_EQ(delivered_at, millis(26));  // 1ms serialization + 25ms NistNet
}

TEST(NetworkTest, LoopbackDelivery) {
  TwoHosts env;
  bool got = false;
  env.net.set_host_stack(env.a, [&](Packet&& p) {
    got = true;
    EXPECT_EQ(p.flow.dst, env.a);
  });
  env.net.send(make_packet(env.a, env.a, 500));
  env.sim.run();
  EXPECT_TRUE(got);
}

TEST(NetworkTest, PacketIdsAreUnique) {
  TwoHosts env;
  std::vector<std::uint64_t> ids;
  env.net.set_host_stack(env.b, [&](Packet&& p) { ids.push_back(p.id); });
  for (int i = 0; i < 5; ++i) env.net.send(make_packet(env.a, env.b, 100));
  env.sim.run();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(NetworkTest, DuplicateLinkThrows) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  net.add_link(a, b, {});
  EXPECT_THROW(net.add_link(a, b, {}), std::invalid_argument);
  EXPECT_THROW(net.add_link(b, a, {}), std::invalid_argument);
}

TEST(NetworkTest, SelfLinkThrows) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  EXPECT_THROW(net.add_link(a, a, {}), std::invalid_argument);
}

TEST(NetworkTest, UnreachableDestinationDropsSilently) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");  // no link
  net.compute_routes();
  bool got = false;
  net.set_host_stack(b, [&](Packet&&) { got = true; });
  Packet p;
  p.flow = FlowKey{a, b, 1, 2, Protocol::kUdp};
  p.payload_bytes = 10;
  net.send(std::move(p));
  sim.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(net.path_prop_delay(a, b), -1);
  EXPECT_DOUBLE_EQ(net.path_bottleneck_bps(a, b), 0.0);
}

TEST(ChannelTest, CapacityChangeAffectsNewPackets) {
  LinkConfig cfg;
  cfg.bits_per_sec = 10e6;
  cfg.prop_delay = 0;
  TwoHosts env(cfg);
  std::vector<SimTime> arrivals;
  env.net.set_host_stack(env.b, [&](Packet&&) { arrivals.push_back(env.sim.now()); });
  env.net.send(make_packet(env.a, env.b, 1210));
  env.sim.run();
  env.net.channel(env.a, env.b).set_capacity_bps(20e6);
  env.net.send(make_packet(env.a, env.b, 1210));
  env.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], millis(1));
  EXPECT_EQ(arrivals[1] - arrivals[0], micros(500));
}

TEST(LinkProbeTest, MeasuresUtilizationAndAvailability) {
  LinkConfig cfg;
  cfg.bits_per_sec = 10e6;
  cfg.prop_delay = 0;
  TwoHosts env(cfg);
  LinkProbe probe(env.sim, env.net.channel(env.a, env.b), millis(100));

  // Send 50 packets of 1250B over the first 100ms: 0.5 Mbit in 0.1s = 5 Mbps.
  for (int i = 0; i < 50; ++i) {
    env.sim.schedule_at(i * millis(2), [&] { env.net.send(make_packet(env.a, env.b, 1210)); });
  }
  env.sim.run_until(millis(250));
  ASSERT_GE(probe.samples().size(), 2u);
  EXPECT_NEAR(probe.samples()[0].utilized_bps, 5e6, 0.6e6);
  EXPECT_NEAR(probe.samples()[0].available_bps, 5e6, 0.6e6);
  // Second interval: idle.
  EXPECT_NEAR(probe.samples()[1].available_bps, 10e6, 0.1e6);
}

TEST(LinkProbeTest, CurrentAvailableBeforeSamplesIsCapacity) {
  TwoHosts env;
  LinkProbe probe(env.sim, env.net.channel(env.a, env.b), seconds(1.0));
  EXPECT_DOUBLE_EQ(probe.current_available_bps(), env.net.channel(env.a, env.b).capacity_bps());
}

}  // namespace
}  // namespace vw::net

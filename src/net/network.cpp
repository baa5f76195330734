#include "net/network.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "util/check.hpp"
#include "util/log.hpp"

namespace vw::net {

namespace {
// Routing weight: propagation delay plus a small per-hop cost so equal-delay
// alternatives prefer fewer hops and ties break deterministically.
constexpr SimTime kPerHopCost = micros(1);
}  // namespace

Network::Network(sim::Simulator& sim) : sim_(sim) {}

NodeId Network::add_node(std::string name, bool is_host) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeInfo{std::move(name), is_host});
  out_.emplace_back();
  host_stacks_.emplace_back();
  taps_.emplace_back();
  routes_valid_ = false;  // first_hop_'s stride is the node count
  return id;
}

void Network::add_link(NodeId a, NodeId b, const LinkConfig& config) {
  VW_REQUIRE(a < nodes_.size() && b < nodes_.size(), "add_link: bad node (", a, ", ", b, ")");
  VW_REQUIRE(a != b, "add_link: self link on node ", a);
  VW_REQUIRE(!has_channel(a, b), "add_link: duplicate link ", a, " <-> ", b);
  for (auto [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    auto ch = std::make_unique<Channel>(sim_, static_cast<ChannelId>(channels_.size()), from, to,
                                        config.bits_per_sec, config.prop_delay,
                                        config.queue_limit_bytes);
    Channel* raw = ch.get();
    raw->set_on_serialized([this, from](Packet& pkt, SimTime t) {
      // Outgoing tap at the source host only: fires when the packet has
      // fully serialized onto the host's own access link (what a kernel
      // trace with NIC-level timestamps observes). Downstream hops must not
      // re-fire the tap or re-stamp the wire time.
      if (pkt.flow.src == from) {
        pkt.wire_time = t;
        fire_taps(pkt.flow.src, TapDirection::kOutgoing, t, pkt);
      }
    });
    raw->set_on_delivered([this, to](Packet&& pkt) { handle_arrival(std::move(pkt), to); });
    out_[from].push_back(raw);
    channels_.push_back(std::move(ch));
  }
  routes_valid_ = false;
}

Channel* Network::find_channel(NodeId from, NodeId to) const {
  if (from >= out_.size()) return nullptr;
  for (Channel* ch : out_[from]) {
    if (ch->to() == to) return ch;
  }
  return nullptr;
}

Channel& Network::channel(NodeId from, NodeId to) {
  Channel* ch = find_channel(from, to);
  if (ch == nullptr) throw std::out_of_range("channel: no such link");
  return *ch;
}

const Channel& Network::channel(NodeId from, NodeId to) const {
  const Channel* ch = find_channel(from, to);
  if (ch == nullptr) throw std::out_of_range("channel: no such link");
  return *ch;
}

bool Network::has_channel(NodeId from, NodeId to) const {
  return find_channel(from, to) != nullptr;
}

void Network::compute_routes() {
  const std::size_t n = nodes_.size();
  first_hop_.assign(n * n, kNoRoute);

  // The stubs (see the header) and their two channels, found once.
  struct Stub {
    NodeId node;
    NodeId peer;
    ChannelId up;    ///< node -> peer, the stub's only out-link
    ChannelId down;  ///< peer -> node
  };
  std::vector<Stub> stubs;
  std::vector<char> is_stub(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    if (out_[u].size() != 1) continue;
    const Channel* up = out_[u].front();
    if (out_[up->to()].size() < 2) continue;  // a lone two-node link stays in the search
    stubs.push_back({u, up->to(), up->id(), find_channel(up->to(), u)->id()});
    is_stub[u] = 1;
  }

  // A compact copy of the core's out-links, so the search never touches a
  // Channel and never enters a stub.
  struct Edge {
    NodeId to;
    ChannelId channel;
    SimTime weight;
  };
  std::vector<std::vector<Edge>> adj(n);
  for (std::size_t u = 0; u < n; ++u) {
    if (is_stub[u]) continue;
    for (const Channel* ch : out_[u]) {
      if (is_stub[ch->to()]) continue;
      adj[u].push_back({ch->to(), ch->id(), ch->prop_delay() + kPerHopCost});
    }
  }

  // Dijkstra from every core source; record the first hop of each shortest
  // path. The heap pops by (dist, node), a total order, so the routes (and
  // their tie-breaks: lower node id first) do not depend on the order of the
  // out-links. dist and the heap's storage are reused across sources.
  std::vector<SimTime> dist(n);
  using Item = std::pair<SimTime, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  for (NodeId src = 0; src < n; ++src) {
    if (is_stub[src]) continue;
    ChannelId* row = first_hop_.data() + static_cast<std::size_t>(src) * n;
    std::fill(dist.begin(), dist.end(), std::numeric_limits<SimTime>::max());
    dist[src] = 0;
    pq.push({0, src});
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (const Edge& e : adj[u]) {
        const SimTime nd = d + e.weight;
        if (nd < dist[e.to]) {
          dist[e.to] = nd;
          row[e.to] = (u == src) ? e.channel : row[u];
          pq.push({nd, e.to});
        }
      }
    }
    // A stub is reached only through its peer.
    for (const Stub& s : stubs) row[s.node] = (s.peer == src) ? s.down : row[s.peer];
  }

  // A stub's every route leaves on its one link: toward its peer and toward
  // whatever its peer reaches.
  for (const Stub& s : stubs) {
    ChannelId* row = first_hop_.data() + static_cast<std::size_t>(s.node) * n;
    const ChannelId* peer_row = first_hop_.data() + static_cast<std::size_t>(s.peer) * n;
    for (NodeId dst = 0; dst < n; ++dst) {
      if (dst != s.node && (dst == s.peer || peer_row[dst] != kNoRoute)) row[dst] = s.up;
    }
  }
  routes_valid_ = true;
}

ChannelId Network::first_hop(NodeId at, NodeId dst) const {
  VW_REQUIRE(routes_valid_, "Network: routes not computed before a route lookup");
  const std::size_t n = nodes_.size();
  if (at >= n || dst >= n) throw std::out_of_range("Network: route lookup on a bad node");
  return first_hop_[static_cast<std::size_t>(at) * n + dst];
}

NodeId Network::next_hop(NodeId at, NodeId dst) const {
  const ChannelId hop = first_hop(at, dst);
  return hop == kNoRoute ? kInvalidNode : channels_[hop]->to();
}

bool Network::walk_route(NodeId a, NodeId b, SmallFn<void(Channel&)> visit) const {
  for (NodeId at = a; at != b;) {
    const ChannelId hop = first_hop(at, b);
    if (hop == kNoRoute) return false;
    Channel& ch = *channels_[hop];
    visit(ch);
    at = ch.to();
  }
  return true;
}

SimTime Network::path_prop_delay(NodeId a, NodeId b) const {
  SimTime total = 0;
  return walk_route(a, b, [&total](Channel& ch) { total += ch.prop_delay(); }) ? total : -1;
}

double Network::path_bottleneck_bps(NodeId a, NodeId b) const {
  double bottleneck = std::numeric_limits<double>::infinity();
  const bool routed = walk_route(
      a, b, [&bottleneck](Channel& ch) { bottleneck = std::min(bottleneck, ch.capacity_bps()); });
  return routed ? bottleneck : 0.0;
}

bool Network::path_up(NodeId a, NodeId b) const {
  bool up = true;
  return walk_route(a, b, [&up](Channel& ch) { up = up && !ch.is_down(); }) && up;
}

void Network::send(Packet pkt) {
  VW_REQUIRE(pkt.flow.src < nodes_.size() && pkt.flow.dst < nodes_.size(),
             "Network::send: bad endpoint (src=", pkt.flow.src, " dst=", pkt.flow.dst, ")");
  pkt.id = next_packet_id_++;
  pkt.send_time = sim_.now();
  if (pkt.flow.src == pkt.flow.dst) {
    // Loopback: deliver asynchronously to preserve event ordering semantics.
    sim_.schedule_in(0, [this, pkt = std::move(pkt)]() mutable {
      pkt.wire_time = sim_.now();
      fire_taps(pkt.flow.src, TapDirection::kOutgoing, sim_.now(), pkt);
      deliver_to_host(std::move(pkt));
    });
    return;
  }
  forward(std::move(pkt), pkt.flow.src);
}

void Network::forward(Packet&& pkt, NodeId at) {
  const ChannelId hop = first_hop(at, pkt.flow.dst);
  if (hop == kNoRoute) return;  // unreachable: silently dropped (like IP)
  channels_[hop]->enqueue(std::move(pkt));
}

void Network::handle_arrival(Packet&& pkt, NodeId at) {
  if (at == pkt.flow.dst) {
    // Endpoint-delay emulation is the exception, not the rule: skip the map
    // probe entirely on topologies that never configured one.
    if (!endpoint_delays_.empty()) {
      const auto it = endpoint_delays_.find({pkt.flow.src, pkt.flow.dst});
      if (it != endpoint_delays_.end() && it->second > 0) {
        sim_.schedule_in(it->second, [this, pkt = std::move(pkt)]() mutable {
          deliver_to_host(std::move(pkt));
        });
        return;
      }
    }
    deliver_to_host(std::move(pkt));
    return;
  }
  forward(std::move(pkt), at);
}

void Network::deliver_to_host(Packet&& pkt) {
  ++packets_delivered_;
  fire_taps(pkt.flow.dst, TapDirection::kIncoming, sim_.now(), pkt);
  auto& stack = host_stacks_[pkt.flow.dst];
  if (stack) stack(std::move(pkt));
}

void Network::set_host_stack(NodeId host, HostStackFn stack) {
  host_stacks_.at(host) = std::move(stack);
}

TapId Network::add_host_tap(NodeId host, TapFn fn) {
  const TapId id = next_tap_id_++;
  taps_.at(host).push_back({id, std::move(fn)});
  return id;
}

void Network::remove_host_tap(NodeId host, TapId id) {
  auto& list = taps_.at(host);
  std::erase_if(list, [id](const auto& entry) { return entry.first == id; });
}

void Network::fire_taps(NodeId host, TapDirection dir, SimTime t, const Packet& pkt) {
  auto& list = taps_[host];
  if (list.empty()) return;
  // One event object shared across the host's taps — no per-tap re-wrapping.
  const TapEvent ev{dir, t, &pkt};
  for (auto& [id, fn] : list) {
    fn(ev);
  }
}

void Network::add_endpoint_delay(NodeId a, NodeId b, SimTime one_way, bool bidirectional) {
  endpoint_delays_[{a, b}] = one_way;
  if (bidirectional) endpoint_delays_[{b, a}] = one_way;
}

void Network::set_link_down(NodeId a, NodeId b, bool down) {
  channel(a, b).set_down(down);
  channel(b, a).set_down(down);
}

void Network::set_link_loss(NodeId a, NodeId b, double p, const RngService& rngs) {
  channel(a, b).set_loss(p, rngs.stream(logcat("loss.", a, ".", b)));
  channel(b, a).set_loss(p, rngs.stream(logcat("loss.", b, ".", a)));
}

std::uint64_t Network::packets_dropped() const {
  std::uint64_t total = 0;
  for (const auto& ch : channels_) total += ch->stats().packets_dropped;
  return total;
}

}  // namespace vw::net

// fleet_1k: the federated measurement plane of bench/fig_federation_scale
// at 1000 daemons on a BRITE topology, federated only. Open loop: every
// daemon sends its XML WrenReport (ground-truth readings toward 8 spread
// peers; the 32-host candidate pool also reports every pool peer) every
// 2 s into its region's control plane, and the regional proxies export
// vw.fedsum.v1 summaries to the root. At the end an 8-VM ring is planned
// on the root view and scored against ground truth.
//
// After the run the driver rebuilds one full summary per region and pushes
// it through the codec and into a fresh root by itself, to time those calls
// and check that the codec round-trips.

#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "soap/xml.hpp"
#include "topo/brite.hpp"
#include "util/rng.hpp"
#include "vadapt/greedy.hpp"
#include "vadapt/problem.hpp"
#include "virtuoso/system.hpp"
#include "wren/federation.hpp"
#include "wren/view.hpp"

using namespace vw;

namespace perfbench {

namespace {

constexpr std::size_t kDaemons = 1000;
constexpr std::size_t kRegions = 8;  ///< ~125 daemons per regional proxy
constexpr std::size_t kPoolSize = 32;
constexpr std::size_t kPeersPerHost = 8;
constexpr std::size_t kRingVms = 8;
constexpr std::size_t kParseSampleEvery = 97;  ///< reports re-parsed in traced runs
const SimTime kReportPeriod = seconds(2.0);
const SimTime kRunFor = seconds(21.0);

}  // namespace

RepResult run_fleet(std::uint64_t seed) {
  RepResult rep;
  const bool traced = recorder().enabled();
  Stopwatch setup_clock;

  RngService rngs(seed);
  sim::Simulator sim;
  topo::BriteParams bp;
  bp.nodes = kDaemons;
  bp.out_degree = 2;
  std::unique_ptr<topo::BriteTopology> brite;
  topo::BriteNetwork bn;
  {
    Span span("topo.build");
    brite = std::make_unique<topo::BriteTopology>(bp, rngs.stream("fleet.brite"));
    Rng pick = rngs.stream("fleet.hosts");
    bn = topo::make_brite_network(sim, *brite, kDaemons, pick);
  }

  virtuoso::SystemConfig config;
  config.view_staleness_horizon = seconds(30.0);
  config.default_bandwidth_bps = 20e6;
  config.federation.enabled = true;
  config.federation.regions = kRegions;
  config.federation.export_period = kReportPeriod;
  config.federation.summary_max_pairs = (kPoolSize / kRegions) * (kPoolSize - 1) + 64;
  virtuoso::VirtuosoSystem system(sim, *bn.network, config);
  const std::int64_t rss_before = rss_kb();
  for (std::size_t i = 0; i < bn.hosts.size(); ++i) {
    Span span("virtuoso.add_daemon");
    system.add_daemon(bn.hosts[i], "h" + std::to_string(i), i == 0);
  }
  rep.values["wren.rss_per_daemon_kb"] =
      static_cast<double>(rss_kb() - rss_before) / static_cast<double>(kDaemons);
  {
    Span span("virtuoso.bootstrap");
    system.bootstrap(vnet::LinkProtocol::kUdp);
  }

  const auto truth = [&](std::size_t i, std::size_t j) {
    return brite->path_metrics(bn.host_router[i], bn.host_router[j]);
  };
  // Hosts 8..39 form the pool: clear of the root proxy and regional heads.
  std::vector<std::size_t> pool;
  for (std::size_t i = 0; i < kPoolSize; ++i) pool.push_back(8 + i);
  std::vector<std::vector<std::size_t>> peers(kDaemons);
  for (std::size_t i = 0; i < kDaemons; ++i) {
    for (std::size_t p = 1; p <= kPeersPerHost; ++p) peers[i].push_back((i + p * 37) % kDaemons);
  }
  for (const std::size_t a : pool) {
    wren::RegionalProxy* proxy =
        system.regional_proxy(system.region_map()->region_of(bn.hosts[a]));
    for (const std::size_t b : pool) {
      if (a == b) continue;
      peers[a].push_back(b);
      proxy->set_demand_weight(bn.hosts[a], bn.hosts[b], 1.0);
    }
  }

  std::uint64_t reports = 0;
  std::vector<soap::XmlNode> parse_samples;
  sim::PeriodicTask reporter(sim, kReportPeriod, [&] {
    for (std::size_t i = 0; i < kDaemons; ++i) {
      std::vector<wren::PathReading> readings;
      readings.reserve(peers[i].size());
      for (const std::size_t j : peers[i]) {
        const auto [bw, lat] = truth(i, j);
        readings.push_back({bn.hosts[j], bw, lat});
      }
      soap::XmlNode msg;
      {
        Span span("soap.report_encode");
        msg = wren::encode_wren_report_xml(bn.hosts[i], readings);
      }
      const wren::RegionId r = system.region_map()->region_of(bn.hosts[i]);
      {
        Span span("soap.send");
        system.regional_control(r)->send(bn.hosts[i], msg);
      }
      if (traced && reports % kParseSampleEvery == 0) parse_samples.push_back(std::move(msg));
      ++reports;
    }
  });
  rep.setup_s = setup_clock.seconds();

  Stopwatch run_clock;
  run_sliced(sim, kRunFor);
  rep.run_s = run_clock.seconds();
  reporter.stop();

  for (const soap::XmlNode& msg : parse_samples) {
    const std::string text = soap::to_xml(msg);
    Span span("soap.parse");
    soap::parse_xml(text);
  }

  const std::uint64_t root_bytes = system.control_plane().delivered_bytes("FederationSummary");
  rep.count("fleet.root_bytes", root_bytes);
  rep.values["root_bytes_per_daemon_s"] =
      static_cast<double>(root_bytes) / static_cast<double>(kDaemons) / to_seconds(kRunFor);
  rep.count("fleet.reports", reports);
  rep.count("fleet.root_view_pairs", system.network_view().entries().size());

  // Plan the ring over the pool on what the root knows (exact entries,
  // then region aggregates, then the default), score it under truth.
  std::vector<net::NodeId> pool_hosts;
  for (const std::size_t a : pool) pool_hosts.push_back(bn.hosts[a]);
  vadapt::CapacityGraph planned(pool_hosts, config.default_bandwidth_bps, 0.01);
  vadapt::CapacityGraph truth_graph(pool_hosts, config.default_bandwidth_bps, 0.01);
  const wren::GlobalNetworkView& view = system.network_view();
  for (std::size_t ia = 0; ia < pool.size(); ++ia) {
    for (std::size_t ib = 0; ib < pool.size(); ++ib) {
      if (ia == ib) continue;
      const net::NodeId ha = pool_hosts[ia];
      const net::NodeId hb = pool_hosts[ib];
      if (const auto bw = view.bandwidth_bps(ha, hb)) {
        planned.set_bandwidth(ia, ib, *bw);
      } else if (const auto agg = system.federation_root()->aggregate_bandwidth(ha, hb)) {
        planned.set_bandwidth(ia, ib, *agg);
      }
      if (const auto lat = view.latency_seconds(ha, hb)) planned.set_latency(ia, ib, *lat);
      const auto [bw_true, lat_true] = truth(pool[ia], pool[ib]);
      truth_graph.set_bandwidth(ia, ib, bw_true);
      truth_graph.set_latency(ia, ib, lat_true);
    }
  }
  std::vector<vadapt::Demand> ring;
  for (std::size_t v = 0; v < kRingVms; ++v) ring.push_back({v, (v + 1) % kRingVms, 20e6});
  const vadapt::GreedyResult plan = vadapt::greedy_heuristic(planned, ring, kRingVms, {});
  const vadapt::Evaluation scored = vadapt::evaluate(truth_graph, ring, plan.configuration, {});
  rep.values["plan_cost_mbps"] = scored.cost / 1e6;
  rep.digest["fleet.plan_cost"] = exact(scored.cost);
  rep.check("fleet_1k: ring plan feasible under ground truth", scored.feasible);

  // One full summary per region, through the codec, into a fresh root.
  wren::GlobalNetworkView fresh_view;
  wren::FederationRoot fresh_root(fresh_view, *system.region_map());
  std::uint64_t summary_bytes = 0;
  bool round_trips = true;
  for (std::size_t r = 0; r < kRegions; ++r) {
    wren::FederationSummary summary;
    {
      Span span("wren.federation.summary_build");
      summary = system.regional_proxy(static_cast<wren::RegionId>(r))
                    ->build_summary(sim.now(), /*force_full=*/true);
    }
    wren::FederationSummary shipped;
    {
      Span span("wren.federation.codec");
      const std::string hex = wren::summary_to_hex(summary);
      summary_bytes += hex.size() / 2;
      shipped = wren::summary_from_hex(hex);
    }
    round_trips = round_trips && shipped == summary;
    Span span("wren.federation.apply");
    fresh_root.apply_summary(shipped, sim.now());
  }
  rep.count("wren.federation.summary_bytes", summary_bytes);
  rep.count("fleet.fresh_root_pairs", fresh_view.entries().size());
  rep.check("fleet_1k: vw.fedsum.v1 summaries round-trip through the codec", round_trips);

  const obs::MetricsSnapshot snap = system.metrics()->snapshot();
  rep.count("sim.events", sim.events_executed());
  rep.count("net.packets_delivered", bn.network->packets_delivered());
  rep.count("net.packets_dropped", bn.network->packets_dropped());
  for (const char* name :
       {"transport.tcp.segments.sent", "transport.tcp.retransmits", "transport.udp.datagrams",
        "wren.trace.captured", "wren.trace.dropped", "wren.collect.runs",
        "wren.trains.extracted", "wren.sic.observations", "vnet.control.delivered",
        "vnet.control.resends", "vnet.control.reconnects", "wren.federation.summaries",
        "wren.federation.entries_applied", "wren.federation.seq_gaps"}) {
    rep.count(name, counter(snap, name));
  }
  return rep;
}

}  // namespace perfbench

// bsp_wan: a 4-VM BSP ring (200 KB messages) over the VNET TCP star on the
// NWU/W&M testbed, with Wren on the W&M daemons mining the encapsulated
// traffic. A seeded step schedule of CBR cross traffic loads the wide-area
// link in the direction Wren monitors (W&M -> NWU); a LinkProbe on that
// channel is the truth Wren's estimates are scored against.
//
// The schedule is a seeded permutation of fixed load levels, so every seed
// puts the link through the same set of loads in a different order: the
// accuracy figures then depend on Wren, not on which loads a seed drew.

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "net/probe.hpp"
#include "topo/testbed.hpp"
#include "transport/sources.hpp"
#include "util/rng.hpp"
#include "virtuoso/system.hpp"
#include "vm/apps.hpp"
#include "wren/offline.hpp"
#include "wren/trace.hpp"

using namespace vw;

namespace perfbench {

namespace {

constexpr int kSteps = 15;                   ///< cross-traffic steps
const SimTime kStepLength = seconds(10.0);   ///< 150 simulated seconds in all

}  // namespace

RepResult run_bsp_wan(std::uint64_t seed) {
  RepResult rep;
  const bool traced = recorder().enabled();
  Stopwatch setup_clock;

  sim::Simulator sim;
  topo::NwuWmTestbed tb = [&] {
    Span span("topo.build");
    return topo::make_nwu_wm_network(sim);
  }();
  // Dedicated cross-traffic endpoints, one behind each site switch, on
  // 100 Mb/s LAN links (the LinkConfig defaults).
  const net::NodeId cross_src = tb.network->add_host("cross.cs.wm.edu");
  const net::NodeId cross_dst = tb.network->add_host("cross.cs.northwestern.edu");
  tb.network->add_link(cross_src, tb.wm_switch, net::LinkConfig{});
  tb.network->add_link(cross_dst, tb.nwu_switch, net::LinkConfig{});
  tb.network->compute_routes();

  virtuoso::VirtuosoSystem system(sim, *tb.network, virtuoso::SystemConfig{});
  // Proxy at NWU (minet-1), daemons everywhere.
  for (const auto& [host, name] : {std::pair{tb.minet1, "minet-1"}, std::pair{tb.minet2, "minet-2"},
                                   std::pair{tb.lr3, "lr3"}, std::pair{tb.lr4, "lr4"}}) {
    Span span("virtuoso.add_daemon");
    system.add_daemon(host, name, /*is_proxy=*/host == tb.minet1);
  }
  {
    Span span("virtuoso.bootstrap");
    system.bootstrap(vnet::LinkProtocol::kTcp);
  }
  std::vector<vm::VirtualMachine*> vms = {
      &system.create_vm("vm-0", tb.minet1), &system.create_vm("vm-1", tb.minet2),
      &system.create_vm("vm-2", tb.lr3), &system.create_vm("vm-3", tb.lr4)};
  vm::apps::BspNeighborApp app(sim, vms, vm::apps::BspNeighborApp::ring_neighbors(4), 200'000,
                               millis(20));
  sim.schedule_at(seconds(0.5), [&app] { app.start(); });

  // Load levels 1.0, 1.5, ..., 8.0 Mb/s, permuted by the seed.
  RngService rngs(seed);
  Rng order = rngs.stream("bsp_wan.schedule");
  std::vector<double> levels;
  for (int i = 0; i < kSteps; ++i) levels.push_back(1e6 + 0.5e6 * i);
  shuffle(levels, order);
  transport::CbrUdpSource cross(system.stack(), cross_src, cross_dst, 7000, levels[0], 1000, 0.1,
                                rngs.stream("bsp_wan.cbr"));
  cross.start();
  for (int i = 1; i < kSteps; ++i) {
    const double rate = levels[static_cast<std::size_t>(i)];
    sim.schedule_at(kStepLength * i, [&cross, rate] { cross.set_rate_bps(rate); });
  }

  // Truth and estimate, per 1 s window. Wren's estimate includes the
  // monitored traffic's own consumption, so the truth is the WAN channel's
  // residual plus what lr3 itself sent (all of it crosses the WAN to the
  // NWU proxy). The sampler reads Wren's estimate toward the proxy and how
  // many SIC observations the window produced.
  wren::OnlineAnalyzer& wm_wren = system.wren_on(tb.lr3);
  net::LinkProbe wan(sim, tb.network->channel(tb.wm_switch, tb.nwu_switch), seconds(1.0));
  net::LinkProbe own(sim, tb.network->channel(tb.lr3, tb.wm_switch), seconds(1.0));
  std::vector<double>& est = rep.series["wren.estimate_bps"];
  std::vector<double>& new_obs = rep.series["wren.window_observations"];
  std::uint64_t last_obs = 0;
  sim::PeriodicTask sampler(sim, seconds(1.0), [&] {
    const auto bw = wm_wren.available_bandwidth_bps(tb.minet1);
    est.push_back(bw ? *bw : std::numeric_limits<double>::quiet_NaN());
    new_obs.push_back(static_cast<double>(wm_wren.observations_total() - last_obs));
    last_obs = wm_wren.observations_total();
  });

  rep.setup_s = setup_clock.seconds();

  // Traced runs also keep the monitored host's full header trace, so the
  // offline analyzer can be timed on exactly what Wren saw.
  std::unique_ptr<wren::TraceFacility> tap;
  if (traced) tap = std::make_unique<wren::TraceFacility>(*tb.network, tb.lr3, 1u << 19);

  Stopwatch run_clock;
  run_sliced(sim, kStepLength * kSteps);
  rep.run_s = run_clock.seconds();
  sampler.stop();
  wan.stop();
  own.stop();
  app.stop();

  std::vector<double>& truth = rep.series["wren.truth_bps"];
  for (std::size_t i = 0; i < wan.samples().size() && i < own.samples().size(); ++i) {
    truth.push_back(wan.samples()[i].available_bps + own.samples()[i].utilized_bps);
  }
  const std::size_t windows = std::min(truth.size(), est.size());
  truth.resize(windows);
  est.resize(windows);
  new_obs.resize(windows);

  if (tap) {
    const std::vector<wren::PacketRecord> records = tap->collect();
    {
      Span span("wren.analyze_offline");
      const wren::OfflineResult offline = wren::analyze_offline(records);
      rep.values["wren.offline.observations"] = static_cast<double>(offline.observations.size());
    }
    rep.values["wren.offline.records"] = static_cast<double>(records.size());
    rep.check("bsp_wan: the offline tap kept every record", tap->records_dropped() == 0);
  }

  const obs::MetricsSnapshot snap = system.metrics()->snapshot();
  rep.count("sim.events", sim.events_executed());
  rep.count("net.packets_delivered", tb.network->packets_delivered());
  rep.count("net.packets_dropped", tb.network->packets_dropped());
  for (const char* name :
       {"transport.tcp.segments.sent", "transport.tcp.retransmits", "transport.udp.datagrams",
        "wren.trace.captured", "wren.trace.dropped", "wren.collect.runs",
        "wren.trains.extracted", "wren.sic.observations", "vnet.frames.forwarded",
        "vnet.control.delivered", "vttif.updates.received"}) {
    rep.count(name, counter(snap, name));
  }
  rep.count("bsp.supersteps", app.supersteps_completed());
  rep.count("wren.monitored.observations", wm_wren.observations_total());
  rep.count("cross.datagrams", cross.datagrams_sent());
  std::string series_text;
  for (std::size_t i = 0; i < windows; ++i) {
    series_text += exact(est[i]) + "/" + exact(truth[i]) + "/" + exact(new_obs[i]) + ";";
  }
  rep.digest["wren.series"] = series_text;

  rep.check("bsp_wan: supersteps > 0", app.supersteps_completed() > 0);
  rep.check("bsp_wan: SIC observations > 0", counter(snap, "wren.sic.observations") > 0);
  return rep;
}

}  // namespace perfbench

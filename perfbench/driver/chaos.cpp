// chaos: the examples/chaos_cluster scenario, rebuilt here from public
// calls so the driver can time its set-up and run phases apart and read
// its counts. The challenge topology carries a UDP overlay with open-loop
// matrix traffic at fixed rates; a scripted outage of the inter-domain link
// cuts the first adaptation's migrations mid-flight; greedy
// auto-adaptation, failure re-plans and control reconnects recover.
//
// The configuration below must stay the example's: the golden signatures
// in tests/golden were recorded from it, and run.py checks seeds 42 and 7
// against them on every invocation.

#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "net/fault.hpp"
#include "topo/testbed.hpp"
#include "util/rng.hpp"
#include "virtuoso/system.hpp"
#include "vm/apps.hpp"

using namespace vw;

namespace perfbench {

namespace {

const SimTime kRunFor = seconds(100.0);

RepResult chaos_scenario(std::uint64_t system_seed, std::string& signature) {
  RepResult rep;
  Stopwatch setup_clock;

  sim::Simulator sim;
  topo::ChallengeNetwork tb = [&] {
    Span span("topo.build");
    return topo::make_challenge_network(sim);
  }();
  // The example logs warnings to stdout; the driver keeps them in memory.
  std::ostringstream log_sink;
  Logger logger(&log_sink, LogLevel::kWarn, [&sim] { return sim.now(); });

  virtuoso::SystemConfig config;
  config.seed = system_seed;
  config.logger = &logger;
  config.view_staleness_horizon = seconds(10.0);
  config.control_heartbeat_period = seconds(1.0);
  config.daemon_timeout = seconds(5.0);
  config.control.send_timeout = seconds(4.0);
  config.control.backoff_initial = millis(250);
  virtuoso::VirtuosoSystem system(sim, *tb.network, config);

  bool first = true;
  for (net::NodeId h : tb.hosts()) {
    Span span("virtuoso.add_daemon");
    system.add_daemon(h, tb.network->node(h).name, first);
    first = false;
  }
  {
    Span span("virtuoso.bootstrap");
    system.bootstrap(vnet::LinkProtocol::kUdp);
  }

  const std::uint64_t mem = 8ull << 20;
  const std::vector<vm::VirtualMachine*> vms = {
      &system.create_vm("vm-0", tb.domain1_hosts[0], mem),
      &system.create_vm("vm-1", tb.domain1_hosts[1], mem),
      &system.create_vm("vm-2", tb.domain2_hosts[0], mem),
      &system.create_vm("vm-3", tb.domain2_hosts[1], mem)};

  vm::apps::DemandMatrix demands;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) demands[{i, j}] = 8e6;
    }
  }
  demands[{0, 3}] = demands[{3, 0}] = 0.5e6;
  vm::apps::MatrixTrafficApp app(sim, vms, demands, millis(100));
  app.start();

  const topo::ChallengeScenario truth = topo::make_challenge_scenario();
  const auto hosts = tb.hosts();
  sim::PeriodicTask oracle(sim, seconds(2.0), [&] {
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      for (std::size_t j = 0; j < hosts.size(); ++j) {
        if (i == j || !tb.network->path_up(hosts[i], hosts[j])) continue;
        system.network_view().update_bandwidth(hosts[i], hosts[j],
                                               truth.graph.bandwidth(i, j), sim.now());
        system.network_view().update_latency(hosts[i], hosts[j], truth.graph.latency(i, j),
                                             sim.now());
      }
    }
  });

  system.enable_auto_adaptation(virtuoso::AdaptationAlgorithm::kGreedy, seconds(10.0));
  net::FaultPlan faults(sim, *tb.network, &logger);
  faults.link_outage(seconds(5.0), seconds(23.0), tb.switch1, tb.switch2);
  rep.setup_s = setup_clock.seconds();

  Stopwatch run_clock;
  run_sliced(sim, kRunFor);
  rep.run_s = run_clock.seconds();
  app.stop();

  const vnet::ControlPlane& control = system.control_plane();
  const vm::MigrationEngine& migration = system.migration();
  std::ostringstream sig;
  sig << "signature: seed=" << system_seed;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    sig << " vm-" << i << "="
        << (vms[i]->attached() ? tb.network->node(vms[i]->host()).name : "DETACHED");
  }
  sig << " adapt=" << system.auto_adaptations() << " replans=" << system.failure_replans()
      << " failed=" << migration.migrations_failed() << " reconnects=" << control.reconnects();
  signature = sig.str();
  rep.digest["chaos.signature"] = signature;

  // The example's resilience invariants.
  bool attached = true;
  for (const vm::VirtualMachine* v : vms) attached = attached && v->attached();
  bool all_alive = true;
  for (net::NodeId h : hosts) all_alive = all_alive && system.daemon_alive(h);
  rep.check("chaos: no VM left detached", attached);
  rep.check("chaos: a migration failed during the outage", migration.migrations_failed() > 0);
  rep.check("chaos: a control connection was torn down", control.disconnects() > 0);
  rep.check("chaos: a control connection reconnected", control.reconnects() > 0);
  rep.check("chaos: a daemon was declared dead", system.daemons_declared_dead() > 0);
  rep.check("chaos: a re-plan followed the failed migrations", system.failure_replans() > 0);
  rep.check("chaos: every daemon alive after the link returned", all_alive);

  const obs::MetricsSnapshot snap = system.metrics()->snapshot();
  rep.count("sim.events", sim.events_executed());
  rep.count("net.packets_delivered", tb.network->packets_delivered());
  rep.count("net.packets_dropped", tb.network->packets_dropped());
  for (const char* name :
       {"transport.tcp.segments.sent", "transport.tcp.retransmits", "transport.udp.datagrams",
        "wren.trace.captured", "wren.trace.dropped", "wren.collect.runs",
        "wren.trains.extracted", "wren.sic.observations", "vttif.updates.received",
        "vm.migrations.started", "vm.migrations.failed", "vnet.frames.forwarded",
        "vnet.control.delivered", "vnet.control.resends", "vnet.control.reconnects",
        "virtuoso.adaptations", "virtuoso.replans"}) {
    rep.count(name, counter(snap, name));
  }
  return rep;
}

}  // namespace

RepResult run_chaos(std::uint64_t seed) {
  std::string signature;
  return chaos_scenario(RngService(seed).seed_for("chaos.system"), signature);
}

std::string chaos_signature(std::uint64_t system_seed) {
  std::string signature;
  chaos_scenario(system_seed, signature);
  return signature;
}

}  // namespace perfbench

// Chaos cluster: the challenge scenario under scripted failures.
//
// The adaptive loop of examples/adaptive_cluster runs while a FaultPlan
// injects an outage on the 10 Mbps inter-domain link — the exact path the
// first adaptation migrates VMs across. The failure model has to carry the
// run:
//   * in-flight migrations see their path die, fail, and roll back to the
//     source host (no VM is ever left detached),
//   * control connections from the far cluster stall, are torn down, and
//     reconnect with exponential backoff once the link returns,
//   * the Proxy stops hearing from the far cluster's daemons, declares them
//     dead, and plans around the survivors; they resurrect on reconnect,
//   * measurements of the dead path age out of the Wren view instead of
//     steering the planner forever,
//   * each failed migration triggers a re-plan (rate-limited by the
//     adaptation cooldown) until a configuration sticks.
//
// The run is bit-for-bit deterministic for a given --seed. Exit status is
// nonzero when any resilience invariant is violated, so CI can use this as
// a smoke test.
//
//   $ ./examples/chaos_cluster [--seed N] [--metrics-json FILE]
//     [--metrics-csv FILE] [--trace FILE] [--events-jsonl FILE]
//     [--no-telemetry] [--capture DIR]
//
// --capture DIR persists every daemon host's packet-header trace as a
// vw.trace.v1 binary shard under DIR (one file per host, written by a
// dedicated writer thread behind a lock-free ring), turning each chaos run
// into a reusable measurement corpus for the vwcap-* tools and offline
// replay. Capture only observes — the run signature is bit-identical with
// and without it.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "net/fault.hpp"
#include "obs/export.hpp"
#include "soap/telemetry.hpp"
#include "topo/testbed.hpp"
#include "virtuoso/system.hpp"
#include "vm/apps.hpp"

using namespace vw;

namespace {

struct Options {
  std::uint64_t seed = 42;
  std::string metrics_json;
  std::string metrics_csv;
  std::string trace;
  std::string events_jsonl;
  std::string capture_dir;
  bool telemetry = true;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << argv[i] << " requires an argument\n";
      std::exit(2);
    }
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed = std::stoull(need_value(i++));
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      opt.metrics_json = need_value(i++);
    } else if (std::strcmp(argv[i], "--metrics-csv") == 0) {
      opt.metrics_csv = need_value(i++);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace = need_value(i++);
    } else if (std::strcmp(argv[i], "--events-jsonl") == 0) {
      opt.events_jsonl = need_value(i++);
    } else if (std::strcmp(argv[i], "--capture") == 0) {
      opt.capture_dir = need_value(i++);
    } else if (std::strcmp(argv[i], "--no-telemetry") == 0) {
      opt.telemetry = false;
    } else {
      std::cerr << "unknown option: " << argv[i] << "\n";
      std::exit(2);
    }
  }
  return opt;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    std::exit(1);
  }
  out << content;
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  sim::Simulator sim;
  topo::ChallengeNetwork tb = topo::make_challenge_network(sim);

  Logger logger(&std::cout, LogLevel::kWarn, [&sim] { return sim.now(); });

  virtuoso::SystemConfig config;
  config.seed = opt.seed;
  config.telemetry = opt.telemetry;
  config.logger = &logger;
  // The failure model, all enabled:
  config.view_staleness_horizon = seconds(10.0);
  config.control_heartbeat_period = seconds(1.0);
  config.daemon_timeout = seconds(5.0);
  config.control.send_timeout = seconds(4.0);
  config.control.backoff_initial = millis(250);
  config.capture_dir = opt.capture_dir;
  virtuoso::VirtuosoSystem system(sim, *tb.network, config);

  bool first = true;
  for (net::NodeId h : tb.hosts()) {
    system.add_daemon(h, tb.network->node(h).name, first);
    first = false;
  }
  system.bootstrap(vnet::LinkProtocol::kUdp);

  // Bad initial placement: the heavy trio (VMs 0-2) straddles the domains,
  // so the first adaptation must migrate across the inter-domain link.
  const std::uint64_t mem = 8ull << 20;
  vm::VirtualMachine& v0 = system.create_vm("vm-0", tb.domain1_hosts[0], mem);
  vm::VirtualMachine& v1 = system.create_vm("vm-1", tb.domain1_hosts[1], mem);
  vm::VirtualMachine& v2 = system.create_vm("vm-2", tb.domain2_hosts[0], mem);
  vm::VirtualMachine& v3 = system.create_vm("vm-3", tb.domain2_hosts[1], mem);
  const std::vector<vm::VirtualMachine*> vms = {&v0, &v1, &v2, &v3};

  vm::apps::DemandMatrix demands;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) demands[{i, j}] = 8e6;
    }
  }
  demands[{0, 3}] = demands[{3, 0}] = 0.5e6;
  vm::apps::MatrixTrafficApp app(sim, vms, demands, millis(100));
  app.start();

  // A measurement oracle standing in for Wren-over-UDP: refresh the Proxy's
  // view every 2 s, but only for pairs whose physical path is actually up —
  // during the outage the cross-domain entries go stale and expire.
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

  // The chaos script: the first adaptation (t~2 s) sends three migrations
  // across the inter-domain link (~10 s each); cut that link mid-flight and
  // restore it 18 s later.
  net::FaultPlan faults(sim, *tb.network, &logger);
  faults.link_outage(seconds(5.0), seconds(23.0), tb.switch1, tb.switch2);

  sim.run_until(seconds(100.0));
  app.stop();
  system.finish_capture();
  if (wren::CaptureSession* capture = system.capture()) {
    std::cout << "capture: " << capture->writers().size() << " shard(s) in " << capture->dir()
              << ", " << capture->records_captured() << " records\n";
  }

  // --- report ---------------------------------------------------------------
  const vnet::ControlPlane& control = system.control_plane();
  const vm::MigrationEngine& migration = system.migration();
  std::cout << "auto adaptations:    " << system.auto_adaptations() << "\n"
            << "failure re-plans:    " << system.failure_replans() << "\n"
            << "daemons died:        " << system.daemons_declared_dead() << "\n"
            << "migrations started:  " << migration.migrations_started() << "\n"
            << "migrations failed:   " << migration.migrations_failed() << "\n"
            << "control disconnects: " << control.disconnects() << "\n"
            << "control reconnects:  " << control.reconnects() << "\n"
            << "control resends:     " << control.messages_resent() << "\n";

  // One-line run signature: equal seeds must reproduce it bit-for-bit.
  std::cout << "signature: seed=" << opt.seed;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    std::cout << " vm-" << i << "="
              << (vms[i]->attached() ? tb.network->node(vms[i]->host()).name : "DETACHED");
  }
  std::cout << " adapt=" << system.auto_adaptations() << " replans="
            << system.failure_replans() << " failed=" << migration.migrations_failed()
            << " reconnects=" << control.reconnects() << "\n";

  if (opt.telemetry) {
    const obs::MetricsSnapshot full = system.metrics()->snapshot();
    if (!opt.metrics_json.empty()) write_file(opt.metrics_json, obs::metrics_json(full));
    if (!opt.metrics_csv.empty()) {
      std::ofstream out(opt.metrics_csv);
      obs::write_csv(out, full);
      std::cout << "wrote " << opt.metrics_csv << "\n";
    }
    if (!opt.trace.empty()) {
      write_file(opt.trace, obs::chrome_trace_json(system.tracer()->events()));
    }
    if (!opt.events_jsonl.empty()) {
      write_file(opt.events_jsonl, obs::events_jsonl(system.tracer()->events()));
    }
  }

  // --- resilience invariants (CI smoke) -------------------------------------
  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "CHAOS FAIL: " << what << "\n";
      ++failures;
    }
  };
  for (std::size_t i = 0; i < vms.size(); ++i) {
    check(vms[i]->attached(), "a VM was left detached");
  }
  check(migration.migrations_failed() > 0, "no migration failed during the outage");
  check(control.disconnects() > 0, "no control connection was torn down");
  check(control.reconnects() > 0, "no control connection reconnected");
  check(system.daemons_declared_dead() > 0, "no daemon was declared dead");
  check(system.failure_replans() > 0, "no re-plan followed the failed migrations");
  for (net::NodeId h : hosts) {
    check(system.daemon_alive(h), "a daemon stayed dead after the link returned");
  }
  if (failures == 0) std::cout << "chaos scenario: all resilience invariants hold\n";
  return failures == 0 ? 0 : 1;
}

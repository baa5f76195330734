// Adaptive cluster: the paper's full loop on the challenge scenario.
//
// Four VMs start badly placed across two clusters (a 100 Mbps domain and a
// 1000 Mbps domain joined by a 10 Mbps link). The heavy all-to-all trio is
// split across the thin inter-domain link. Virtuoso:
//   1. carries the VM traffic over the VNET star,
//   2. infers the application topology with VTTIF,
//   3. measures the physical paths with Wren (fed here from ground truth
//      for the UDP overlay; see fig4 for the Wren-over-TCP pipeline),
//   4. runs VADAPT (greedy heuristic + multi-start simulated annealing),
//   5. migrates the VMs and re-routes the overlay,
// and the application's delivered throughput improves.
//
//   $ ./examples/adaptive_cluster [options]
//
// Telemetry options (the system-wide metrics registry + event tracer):
//   --metrics-json FILE    export the final metrics snapshot as JSON
//   --metrics-csv FILE     export the final metrics snapshot as CSV
//   --trace FILE           export Chrome trace_event JSON (about:tracing)
//   --events-jsonl FILE    export the trace events as JSONL
//   --no-telemetry         disable the observability subsystem entirely
//   --capture DIR          persist per-host vw.trace.v1 packet-trace shards

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/export.hpp"
#include "soap/telemetry.hpp"
#include "topo/testbed.hpp"
#include "virtuoso/system.hpp"
#include "vm/apps.hpp"

using namespace vw;

namespace {

struct Options {
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
      std::cerr << argv[i] << " requires a file argument\n";
      std::exit(2);
    }
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-json") == 0) {
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

  virtuoso::SystemConfig config;
  config.annealing.iterations = 3000;
  config.multistart.chains = 4;  // chain 0 seeded with GH, 3 random restarts
  config.telemetry = opt.telemetry;
  config.capture_dir = opt.capture_dir;  // binary trace shards, one per host
  virtuoso::VirtuosoSystem system(sim, *tb.network, config);

  bool first = true;
  for (net::NodeId h : tb.hosts()) {
    system.add_daemon(h, tb.network->node(h).name, first);
    first = false;
  }
  system.bootstrap(vnet::LinkProtocol::kUdp);

  // Bad initial placement: the heavy trio (VMs 0-2) straddles the domains.
  const std::uint64_t mem = 8ull << 20;  // small images keep migrations quick
  vm::VirtualMachine& v0 = system.create_vm("vm-0", tb.domain1_hosts[0], mem);
  vm::VirtualMachine& v1 = system.create_vm("vm-1", tb.domain1_hosts[1], mem);
  vm::VirtualMachine& v2 = system.create_vm("vm-2", tb.domain2_hosts[0], mem);
  vm::VirtualMachine& v3 = system.create_vm("vm-3", tb.domain2_hosts[1], mem);

  vm::apps::DemandMatrix demands;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) demands[{i, j}] = 8e6;  // heavy all-to-all trio
    }
  }
  demands[{0, 3}] = demands[{3, 0}] = 0.5e6;  // light chatter to VM 3
  vm::apps::MatrixTrafficApp app(sim, {&v0, &v1, &v2, &v3}, demands, millis(100));
  app.start();

  auto delivered = [&] {
    return v0.bytes_received() + v1.bytes_received() + v2.bytes_received() +
           v3.bytes_received();
  };

  // Phase 1: observe the badly placed application.
  sim.run_until(seconds(20.0));
  const std::uint64_t before_bytes = delivered();
  const double before_mbps = static_cast<double>(before_bytes) * 8.0 / 20.0 / 1e6;
  std::cout << "before adaptation: " << before_mbps << " Mb/s delivered\n";
  std::cout << "VTTIF sees " << system.current_demands().size() << " VM flows\n";

  // Feed the Proxy's network view (Wren's role; ground truth here).
  const topo::ChallengeScenario truth = topo::make_challenge_scenario();
  const auto hosts = tb.hosts();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = 0; j < hosts.size(); ++j) {
      if (i == j) continue;
      system.network_view().update_bandwidth(hosts[i], hosts[j], truth.graph.bandwidth(i, j),
                                             sim.now());
      system.network_view().update_latency(hosts[i], hosts[j], truth.graph.latency(i, j),
                                           sim.now());
    }
  }

  // Phase 2: adapt (multi-start SA, chain 0 seeded with the greedy
  // heuristic) and let the migrations play out.
  const virtuoso::AdaptationOutcome outcome =
      system.adapt_now(virtuoso::AdaptationAlgorithm::kMultiStartAnnealing);
  std::cout << "adaptation: CEF=" << outcome.evaluation.cost / 1e6 << " Mb/s, "
            << outcome.migrations << " migrations issued\n";
  sim.run_until(seconds(45.0));  // migrations complete; traffic resumes

  // Phase 3: measure the adapted placement over a fresh window.
  const std::uint64_t mid_bytes = delivered();
  sim.run_until(seconds(65.0));
  const double after_mbps = static_cast<double>(delivered() - mid_bytes) * 8.0 / 20.0 / 1e6;

  std::cout << "after adaptation:  " << after_mbps << " Mb/s delivered\n";
  for (auto [name, machine] :
       {std::pair{"vm-0", &v0}, {"vm-1", &v1}, {"vm-2", &v2}, {"vm-3", &v3}}) {
    std::cout << "  " << name << " on " << tb.network->node(machine->host()).name << "\n";
  }
  std::cout << "speedup: " << after_mbps / before_mbps << "x\n";

  // Telemetry report: query the registry through the SOAP endpoint (the
  // same path an external monitoring client would use) and print the
  // adaptation-relevant counters, then export whatever was requested.
  if (opt.telemetry) {
    const soap::TelemetryClient client(system.registry(),
                                       virtuoso::VirtuosoSystem::kTelemetryEndpoint);
    std::cout << "\n";
    obs::write_text_table(std::cout, client.query_metrics("vadapt"));
    obs::write_text_table(std::cout, client.query_metrics("virtuoso"));

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
  system.finish_capture();
  if (wren::CaptureSession* capture = system.capture()) {
    std::cout << "capture: " << capture->writers().size() << " shard(s) in " << capture->dir()
              << ", " << capture->records_captured() << " records\n";
  }
  return 0;
}

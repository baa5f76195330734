// Offline analysis: record now, analyze later.
//
// Wren's original deployment mode (the paper's online analysis extends it):
// the kernel trace is filtered for useful observations and shipped to a
// repository; analysis replays it offline. This example records a
// monitored transfer, archives the filtered records as a vw.trace.v1 file,
// reads it back, and reproduces the estimate from the file alone.
//
// It also runs the capture/replay differential: the same run is captured a
// second time through the vw.trace.v1 datapath (tap -> buffered append to
// a shard file on the simulation thread, which drops nothing). The
// archive and the shard are both replayed through train extraction + SIC,
// and each must reproduce, bit for bit, the analysis of the in-memory
// collect() records they came from, which must in turn equal the online
// analyzer's estimate.
// Exit status is nonzero when any estimate differs, so CI can use this as
// the capture/replay correctness gate.
//
//   $ ./examples/offline_analysis [archive-path [binary-shard-path]]

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "transport/sources.hpp"
#include "transport/stack.hpp"
#include "wren/analyzer.hpp"
#include "wren/offline.hpp"
#include "wren/trace_writer.hpp"

using namespace vw;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/wren-archive.vwtrace";
  const std::string binary_path = argc > 2 ? argv[2] : "/tmp/wren-shard.vwtrace";

  // --- capture phase -----------------------------------------------------
  sim::Simulator sim;
  net::Network net(sim);
  const net::NodeId sender = net.add_host("sender");
  const net::NodeId receiver = net.add_host("receiver");
  const net::NodeId cross = net.add_host("cross");
  const net::NodeId sw = net.add_router("switch");
  net::LinkConfig cfg;
  cfg.bits_per_sec = 100e6;
  cfg.prop_delay = micros(50);
  net.add_link(sender, sw, cfg);
  net.add_link(cross, sw, cfg);
  net.add_link(sw, receiver, cfg);
  net.compute_routes();
  transport::TransportStack stack(net);

  wren::TraceFacility trace(net, sender, 1 << 20);
  wren::OnlineAnalyzer online(net, sender);  // for comparison

  // Second capture path, same tap source: the binary datapath (the
  // differential below demands a complete shard).
  wren::TraceWriter writer(net, sender, binary_path);

  transport::CbrUdpSource cbr(stack, cross, receiver, 7000, 35e6, 1000);
  cbr.start();
  std::vector<transport::MessagePhase> phases{
      {.count = 100, .message_bytes = 200'000, .spacing = millis(100), .pause_after = 0}};
  transport::MessageSource app(stack, sender, receiver, 9000, phases);
  app.start();
  sim.run_until(seconds(10.0));

  const auto records = wren::filter_useful(trace.collect());
  {
    wren::TraceFileHeader header;
    header.host = sender;
    header.dropped = trace.records_dropped();
    std::ofstream out(path, std::ios::out | std::ios::binary);
    wren::write_trace_binary(out, header, records);
  }
  std::cout << "captured " << records.size() << " useful records -> " << path << "\n";
  const wren::OfflineResult in_memory = wren::analyze_offline(records);

  // --- offline phase (could run anywhere, any time later) ----------------
  const wren::BinaryTrace archive = wren::read_trace_binary_file(path);
  const wren::OfflineResult result = wren::analyze_offline(archive.records);

  std::cout << "offline analysis: " << result.flows_analyzed << " flow(s), "
            << result.observations.size() << " observations\n";
  for (const auto& [flow, bps] : result.estimates_bps) {
    std::cout << "  flow to host " << flow.dst << ": " << bps / 1e6
              << " Mb/s available (truth: 65 Mb/s)\n";
  }
  if (auto live = online.available_bandwidth_bps(receiver)) {
    std::cout << "online analyzer said:   " << *live / 1e6 << " Mb/s\n";
  }

  // --- capture/replay differential ---------------------------------------
  // The archive and the vw.trace.v1 shard captured by the writer must both
  // replay to the exact estimates of the in-memory records: same records
  // in, same SIC math, bit-identical doubles out.
  writer.finish();
  const wren::BinaryTrace shard = wren::read_trace_binary_file(binary_path);
  std::cout << "binary shard: " << shard.records.size() << " of "
            << writer.records_captured() << " captured records -> " << binary_path << "\n";
  const wren::OfflineResult from_shard =
      wren::analyze_offline(wren::filter_useful(shard.records));

  int failures = 0;
  if (writer.records_written() != writer.records_captured()) {
    std::cerr << "DIFFERENTIAL FAIL: the shard lost captured records\n";
    ++failures;
  }
  auto expect_identical = [&failures, &in_memory](const char* what,
                                                  const wren::OfflineResult& replay) {
    if (replay.observations.size() != in_memory.observations.size()) {
      std::cerr << "DIFFERENTIAL FAIL: " << replay.observations.size() << " observations from "
                << what << " vs " << in_memory.observations.size() << " in memory\n";
      ++failures;
    }
    if (replay.estimates_bps.size() != in_memory.estimates_bps.size()) {
      std::cerr << "DIFFERENTIAL FAIL: flow count mismatch in " << what << "\n";
      ++failures;
    }
    for (const auto& [flow, bps] : in_memory.estimates_bps) {
      const auto it = std::find_if(replay.estimates_bps.begin(), replay.estimates_bps.end(),
                                   [&flow](const auto& e) { return e.first == flow; });
      if (it == replay.estimates_bps.end()) {
        std::cerr << "DIFFERENTIAL FAIL: flow to host " << flow.dst << " missing from " << what
                  << "\n";
        ++failures;
      } else if (it->second != bps) {  // bit-identical, not approximately equal
        std::fprintf(stderr, "DIFFERENTIAL FAIL: %s, flow to host %u: %.17g vs %.17g\n", what,
                     unsigned(flow.dst), it->second, bps);
        ++failures;
      }
    }
  };
  expect_identical("archive replay", result);
  expect_identical("shard replay", from_shard);
  // The online analyzer saw the same packets live; its estimate must be the
  // in-memory replay's too.
  const auto live = online.available_bandwidth_bps(receiver);
  const auto replayed_bw =
      std::find_if(in_memory.estimates_bps.begin(), in_memory.estimates_bps.end(),
                   [receiver](const auto& e) { return e.first.dst == receiver; });
  if (!live || replayed_bw == in_memory.estimates_bps.end()) {
    std::cerr << "DIFFERENTIAL FAIL: no estimate toward host " << receiver << " to compare\n";
    ++failures;
  } else if (*live != replayed_bw->second) {
    std::fprintf(stderr, "DIFFERENTIAL FAIL: online %.17g vs replay %.17g\n", *live,
                 replayed_bw->second);
    ++failures;
  }
  if (failures == 0) {
    std::cout << "replay differential: archive, shard and online estimates bit-identical\n";
  }
  return failures == 0 ? 0 : 1;
}

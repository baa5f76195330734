// Tests for the vw.trace.v1 binary capture datapath: the binary codec
// (incl. corrupt-input handling), the TraceWriter shard append (incl. write
// failures), the capture-session wiring and its determinism, the corpus
// operations (merge/filter/match), and the binary -> offline-replay
// differential.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <vector>

#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "sim/simulator.hpp"
#include "transport/sources.hpp"
#include "transport/stack.hpp"
#include "wren/capture.hpp"
#include "wren/offline.hpp"
#include "wren/trace.hpp"
#include "wren/trace_binary.hpp"
#include "wren/trace_writer.hpp"

namespace vw::wren {
namespace {

std::string temp_path(const char* name) { return ::testing::TempDir() + name; }

PacketRecord sample_record() {
  PacketRecord r;
  r.timestamp = millis(123);
  r.direction = net::TapDirection::kOutgoing;
  r.flow = net::FlowKey{3, 7, 1000, 2000, net::Protocol::kTcp};
  r.payload_bytes = 1460;
  r.wire_bytes = 1500;
  r.seq = 14600;
  r.ack = 0;
  return r;
}

bool records_equal(const PacketRecord& a, const PacketRecord& b) {
  return a.timestamp == b.timestamp && a.direction == b.direction && a.flow == b.flow &&
         a.payload_bytes == b.payload_bytes && a.wire_bytes == b.wire_bytes && a.seq == b.seq &&
         a.ack == b.ack && a.is_ack == b.is_ack && a.syn == b.syn;
}

// --- binary codec ------------------------------------------------------------

TEST(TraceBinaryTest, RecordRoundTrip) {
  PacketRecord r = sample_record();
  r.is_ack = true;
  r.syn = true;
  r.direction = net::TapDirection::kIncoming;
  r.ack = 0x1122334455667788ull;
  const auto buf = encode_record(r);
  const PacketRecord back = decode_record(buf.data());
  EXPECT_TRUE(records_equal(r, back));
  EXPECT_EQ(back.flow.proto, net::Protocol::kTcp);  // the format is TCP-only
}

TEST(TraceBinaryTest, HeaderRoundTrip) {
  TraceFileHeader h;
  h.host = 42;
  h.shard = 3;
  h.record_count = 7;
  h.dropped = 2;
  const auto buf = encode_header(h);
  const TraceFileHeader back = decode_header(buf.data());
  EXPECT_EQ(back.host, 42u);
  EXPECT_EQ(back.shard, 3u);
  EXPECT_EQ(back.record_count, 7u);
  EXPECT_EQ(back.dropped, 2u);
}

TEST(TraceBinaryTest, FileRoundTrip) {
  std::vector<PacketRecord> records{sample_record()};
  PacketRecord second = sample_record();
  second.timestamp = millis(124);
  second.seq = 16060;
  records.push_back(second);

  TraceFileHeader h;
  h.host = 3;
  h.shard = 1;
  h.dropped = 5;
  std::stringstream ss;
  write_trace_binary(ss, h, records);
  EXPECT_EQ(ss.str().size(), kTraceHeaderSize + records.size() * kTraceRecordSize);

  const BinaryTrace back = read_trace_binary(ss);
  EXPECT_EQ(back.header.host, 3u);
  EXPECT_EQ(back.header.shard, 1u);
  EXPECT_EQ(back.header.dropped, 5u);
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_TRUE(records_equal(back.records[0], records[0]));
  EXPECT_TRUE(records_equal(back.records[1], records[1]));
}

void expect_parse_error(const std::string& bytes, const char* needle) {
  std::stringstream ss(bytes);
  try {
    read_trace_binary(ss);
    FAIL() << "expected parse error mentioning '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(TraceBinaryTest, RejectsTruncatedHeader) {
  expect_parse_error(std::string(10, '\0'), "header");
}

TEST(TraceBinaryTest, RejectsBadMagic) {
  std::string bytes(kTraceHeaderSize, '\0');
  bytes.replace(0, 8, "NOTTRACE");
  expect_parse_error(bytes, "magic");
}

TEST(TraceBinaryTest, RejectsFutureVersion) {
  auto buf = encode_header(TraceFileHeader{});
  buf[8] = 99;  // version u32 LE at offset 8
  expect_parse_error(std::string(buf.begin(), buf.end()), "version");
}

TEST(TraceBinaryTest, RejectsWrongRecordSize) {
  auto buf = encode_header(TraceFileHeader{});
  buf[12] = 47;  // record_size u32 LE at offset 12
  expect_parse_error(std::string(buf.begin(), buf.end()), "record size");
}

TEST(TraceBinaryTest, RejectsTruncatedRecord) {
  TraceFileHeader h;
  std::stringstream ss;
  write_trace_binary(ss, h, {sample_record()});
  std::string bytes = ss.str();
  bytes.resize(bytes.size() - 1);
  expect_parse_error(bytes, "truncated");
}

TEST(TraceBinaryTest, RejectsRecordCountMismatch) {
  std::stringstream ss;
  write_trace_binary(ss, TraceFileHeader{}, {sample_record(), sample_record()});
  std::string bytes = ss.str();
  // Claim 3 records in the header while the body carries 2.
  bytes[24] = 3;
  expect_parse_error(bytes, "count");
}

TEST(TraceBinaryTest, RejectsRecordCountLargerThanFile) {
  // A header-only file that claims 2^62 records: the reader must not size
  // anything from the untrusted count and must report the mismatch.
  TraceFileHeader h;
  h.record_count = std::uint64_t{1} << 62;
  const auto buf = encode_header(h);
  expect_parse_error(std::string(buf.begin(), buf.end()), "record count mismatch");
}

TEST(TraceBinaryTest, ReadFileReportsMissingPath) {
  EXPECT_THROW(read_trace_binary_file(temp_path("does-not-exist.vwtrace")),
               std::runtime_error);
}

// --- archive hardening (satellite) -------------------------------------------

TEST(TraceArchiveHardeningTest, RejectsTrailingGarbageAfterRecord) {
  std::stringstream out;
  write_trace_binary(out, TraceFileHeader{}, {sample_record()});
  std::stringstream in(out.str() + "surplus-token");
  EXPECT_THROW(read_trace_binary(in), std::runtime_error);
}

// --- TraceFacility gauge (satellite) -----------------------------------------

TEST(TraceFacilityGaugeTest, BufferedGaugeTracksRingOccupancy) {
  sim::Simulator sim;
  net::Network net(sim);
  const net::NodeId a = net.add_host("a");
  const net::NodeId b = net.add_host("b");
  net::LinkConfig cfg;
  cfg.bits_per_sec = 100e6;
  cfg.prop_delay = micros(50);
  net.add_link(a, b, cfg);
  net.compute_routes();
  transport::TransportStack stack(net);

  TraceFacility trace(net, a);
  obs::MetricsRegistry reg;
  trace.set_obs(obs::Scope{&reg, nullptr});
  obs::Gauge& buffered = reg.gauge("wren.trace.buffered");

  std::vector<transport::MessagePhase> phases{
      {.count = 5, .message_bytes = 50'000, .spacing = millis(10), .pause_after = 0}};
  transport::MessageSource app(stack, a, b, 9000, phases);
  app.start();
  sim.run_until(seconds(2.0));

  EXPECT_GT(trace.buffered(), 0u);
  EXPECT_EQ(buffered.value(), static_cast<double>(trace.buffered()));
  const auto records = trace.collect();
  EXPECT_GT(records.size(), 0u);
  EXPECT_EQ(buffered.value(), 0.0);  // drained
}

// --- TraceWriter end-to-end --------------------------------------------------

struct CaptureEnv {
  sim::Simulator sim;
  net::Network net{sim};
  net::NodeId sender, receiver, sw;
  std::unique_ptr<transport::TransportStack> stack;

  CaptureEnv() {
    sender = net.add_host("s");
    receiver = net.add_host("r");
    sw = net.add_router("sw");
    net::LinkConfig cfg;
    cfg.bits_per_sec = 100e6;
    cfg.prop_delay = micros(50);
    net.add_link(sender, sw, cfg);
    net.add_link(sw, receiver, cfg);
    net.compute_routes();
    stack = std::make_unique<transport::TransportStack>(net);
  }

  void run_transfer(double run_s = 3.0) {
    std::vector<transport::MessagePhase> phases{
        {.count = 20, .message_bytes = 100'000, .spacing = millis(50), .pause_after = 0}};
    transport::MessageSource app(*stack, sender, receiver, 9000, phases);
    app.start();
    sim.run_until(seconds(run_s));
  }
};

TEST(TraceWriterTest, CapturesExactlyWhatTheFacilitySees) {
  CaptureEnv env;
  const std::string path = temp_path("writer-e2e.vwtrace");
  TraceFacility facility(env.net, env.sender, 1 << 20);
  TraceWriter writer(env.net, env.sender, path, 7);

  obs::MetricsRegistry reg;
  writer.set_obs(obs::Scope{&reg, nullptr});

  env.run_transfer();
  writer.finish();
  EXPECT_TRUE(writer.finished());
  EXPECT_EQ(writer.records_written(), writer.records_captured());
  EXPECT_EQ(writer.bytes_written(), writer.records_written() * kTraceRecordSize);

  const auto expected = facility.collect();
  const BinaryTrace shard = read_trace_binary_file(path);
  EXPECT_EQ(shard.header.host, env.sender);
  EXPECT_EQ(shard.header.shard, 7u);
  EXPECT_EQ(shard.header.dropped, 0u);
  EXPECT_EQ(shard.header.record_count, shard.records.size());
  ASSERT_EQ(shard.records.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(records_equal(shard.records[i], expected[i])) << "record " << i;
  }

  // Telemetry: the writer pipeline accounted every record and byte.
  const obs::MetricsSnapshot snap = reg.snapshot("wren.trace.writer");
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(reg.counter("wren.trace.writer.captured").value(), expected.size());
  EXPECT_EQ(reg.counter("wren.trace.writer.written").value(), expected.size());
  EXPECT_EQ(reg.counter("wren.trace.writer.bytes").value(),
            expected.size() * kTraceRecordSize);
}

TEST(TraceWriterTest, FinishIsIdempotentAndDestructorSafe) {
  CaptureEnv env;
  const std::string path = temp_path("writer-idem.vwtrace");
  {
    TraceWriter writer(env.net, env.sender, path);
    env.run_transfer(1.0);
    writer.finish();
    writer.finish();  // no-op
  }                   // destructor runs finish() again
  EXPECT_NO_THROW(read_trace_binary_file(path));
}

TEST(TraceWriterTest, ThrowsWhenFileCannotBeCreated) {
  CaptureEnv env;
  EXPECT_THROW(TraceWriter(env.net, env.sender, "/nonexistent-dir/x/y.vwtrace"),
               std::runtime_error);
}

TEST(TraceWriterTest, ReportsWriteFailure) {
  const std::string path = "/dev/full";  // every write fails with ENOSPC
  if (!std::filesystem::exists(path)) GTEST_SKIP() << path << " does not exist";
  CaptureEnv env;
  TraceWriter writer(env.net, env.sender, path);
  env.run_transfer();
  ASSERT_GT(writer.records_captured(), 0u);
  // Only what the stream accepted before the error counts.
  EXPECT_LT(writer.records_written(), writer.records_captured());
  EXPECT_EQ(writer.bytes_written(), writer.records_written() * kTraceRecordSize);
  try {
    writer.finish();
    FAIL() << "finish() must report the failed writes";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  EXPECT_TRUE(writer.finished());
  EXPECT_NO_THROW(writer.finish());  // the error is reported once
}

TEST(CaptureSessionTest, FinishesEveryShardBeforeReportingWriteFailure) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "/dev/full does not exist";
  CaptureEnv env;
  const std::filesystem::path dir = temp_path("capture-full");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // The sender's shard path leads to /dev/full; the receiver's is a file.
  std::filesystem::create_symlink(
      "/dev/full", dir / ("trace_host" + std::to_string(env.sender) + ".vwtrace"));
  CaptureSession session(env.net, dir.string());
  const TraceWriter& failing = session.add_host(env.sender);
  const TraceWriter& healthy = session.add_host(env.receiver);
  env.run_transfer();

  EXPECT_THROW(session.finish(), std::runtime_error);
  EXPECT_TRUE(failing.finished());
  EXPECT_TRUE(healthy.finished());
  EXPECT_EQ(read_trace_binary_file(healthy.path()).records.size(), healthy.records_captured());
  EXPECT_NO_THROW(session.finish());
}

TEST(CaptureSessionTest, OneShardPerHostMergesTimeOrdered) {
  CaptureEnv env;
  const std::string dir = temp_path("capture-session");
  CaptureSession session(env.net, dir);
  session.add_host(env.sender);
  session.add_host(env.receiver);
  env.run_transfer();
  session.finish();

  ASSERT_EQ(session.writers().size(), 2u);
  EXPECT_GT(session.records_captured(), 0u);

  std::vector<std::vector<PacketRecord>> shards;
  for (const auto& w : session.writers()) {
    const BinaryTrace t = read_trace_binary_file(w->path());
    EXPECT_EQ(t.header.host, w->host());
    shards.push_back(t.records);
  }
  EXPECT_EQ(shards[0].size() + shards[1].size(), session.records_captured());

  const auto merged = merge_traces(shards);
  ASSERT_EQ(merged.size(), session.records_captured());
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].timestamp, merged[i].timestamp);
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(CaptureSessionTest, SameRunGivesByteIdenticalShards) {
  // A shard is a pure function of the run: two identical runs captured
  // into two directories must write the same bytes.
  auto capture = [](const std::string& dir) {
    CaptureEnv env;
    CaptureSession session(env.net, dir);
    session.add_host(env.sender);
    session.add_host(env.receiver);
    env.run_transfer();
    session.finish();
    std::vector<std::string> paths;
    for (const auto& w : session.writers()) paths.push_back(w->path());
    return paths;
  };
  const auto first = capture(temp_path("capture-det-a"));
  const auto second = capture(temp_path("capture-det-b"));
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    const std::string a = file_bytes(first[i]);
    EXPECT_GT(a.size(), kTraceHeaderSize) << first[i];
    EXPECT_TRUE(a == file_bytes(second[i])) << first[i] << " vs " << second[i];
  }
}

// --- corpus operations -------------------------------------------------------

TEST(TraceFilterTest, FieldsComposeAndUnsetMatchesAll) {
  PacketRecord r = sample_record();  // src 3 -> dst 7, ports 1000 -> 2000
  EXPECT_TRUE(TraceFilter{}.matches(r));

  TraceFilter f;
  f.src = 3;
  f.dst = 7;
  f.dst_port = 2000;
  EXPECT_TRUE(f.matches(r));
  f.src_port = 1001;
  EXPECT_FALSE(f.matches(r));

  TraceFilter window;
  window.from = millis(123);
  window.to = millis(123);
  EXPECT_TRUE(window.matches(r));  // inclusive on both ends
  window.to = millis(122);
  window.from = millis(0);
  EXPECT_FALSE(window.matches(r));

  TraceFilter useful;
  useful.useful_only = true;
  EXPECT_TRUE(useful.matches(r));  // outgoing data
  PacketRecord in_data = r;
  in_data.direction = net::TapDirection::kIncoming;
  EXPECT_FALSE(useful.matches(in_data));
}

TEST(MatchTracesTest, PairsFramesAndCountsLoss) {
  // Hand-built two-point capture: three data frames leave A; the second is
  // lost; the first is retransmitted (same seq/payload) and both copies
  // arrive — FIFO pairing must map copy 1 -> arrival 1, copy 2 -> arrival 2.
  const net::FlowKey flow{0, 1, 1000, 2000, net::Protocol::kTcp};
  auto frame = [&](SimTime t, std::uint64_t seq, net::TapDirection dir) {
    PacketRecord r;
    r.timestamp = t;
    r.direction = dir;
    r.flow = flow;
    r.payload_bytes = 1460;
    r.wire_bytes = 1500;
    r.seq = seq;
    return r;
  };
  std::vector<PacketRecord> from{
      frame(millis(1), 0, net::TapDirection::kOutgoing),
      frame(millis(2), 1460, net::TapDirection::kOutgoing),  // lost
      frame(millis(3), 0, net::TapDirection::kOutgoing),     // retransmission
  };
  std::vector<PacketRecord> to{
      frame(millis(1) + micros(200), 0, net::TapDirection::kIncoming),
      frame(millis(3) + micros(300), 0, net::TapDirection::kIncoming),
  };

  const MatchResult result = match_traces(from, to);
  ASSERT_EQ(result.matched.size(), 2u);
  EXPECT_EQ(result.unmatched_from, 1u);
  EXPECT_EQ(result.unmatched_to, 0u);
  EXPECT_EQ(result.matched[0].latency(), micros(200));
  EXPECT_EQ(result.matched[1].latency(), micros(300));
  EXPECT_EQ(result.min_latency(), micros(200));
  EXPECT_EQ(result.max_latency(), micros(300));
  EXPECT_EQ(result.latency_quantile(0.5), micros(200));
  EXPECT_DOUBLE_EQ(result.mean_latency_ns(), (micros(200) + micros(300)) / 2.0);
}

TEST(MatchTracesTest, SimulatedTwoPointLatencyRespectsPropagation) {
  // Capture at both ends of sender -> switch -> receiver (50 us per hop)
  // and match: every frame's NIC-departure -> NIC-delivery latency must be
  // at least the two-hop propagation delay plus downstream serialization.
  CaptureEnv env;
  const std::string from_path = temp_path("match-from.vwtrace");
  const std::string to_path = temp_path("match-to.vwtrace");
  TraceWriter at_sender(env.net, env.sender, from_path);
  TraceWriter at_receiver(env.net, env.receiver, to_path);
  env.run_transfer();
  at_sender.finish();
  at_receiver.finish();

  const BinaryTrace from = read_trace_binary_file(from_path);
  const BinaryTrace to = read_trace_binary_file(to_path);
  const MatchResult result = match_traces(from.records, to.records);
  ASSERT_GT(result.matched.size(), 100u);
  EXPECT_EQ(result.unmatched_from, 0u);  // lossless path, every frame arrives
  // 2 x 50 us propagation + >= 120 ns serialization of the second hop.
  EXPECT_GE(result.min_latency(), micros(100));
  EXPECT_LT(result.min_latency(), millis(10));
  EXPECT_LE(result.min_latency(), result.latency_quantile(0.5));
  EXPECT_LE(result.latency_quantile(0.5), result.max_latency());
}

// --- the differential: binary capture replays to identical estimates ---------

TEST(BinaryReplayDifferentialTest, EstimatesBitIdenticalToInProcessAnalysis) {
  CaptureEnv env;
  const std::string path = temp_path("differential.vwtrace");
  TraceFacility facility(env.net, env.sender, 1 << 20);
  TraceWriter writer(env.net, env.sender, path);

  std::vector<transport::MessagePhase> phases{
      {.count = 60, .message_bytes = 200'000, .spacing = millis(100), .pause_after = 0}};
  transport::MessageSource app(*env.stack, env.sender, env.receiver, 9000, phases);
  app.start();
  env.sim.run_until(seconds(7.0));
  writer.finish();

  const OfflineResult direct = analyze_offline(filter_useful(facility.collect()));
  const BinaryTrace shard = read_trace_binary_file(path);
  const OfflineResult replayed = analyze_offline(filter_useful(shard.records));

  ASSERT_GT(direct.observations.size(), 10u);
  ASSERT_EQ(replayed.observations.size(), direct.observations.size());
  ASSERT_EQ(replayed.estimates_bps.size(), direct.estimates_bps.size());
  for (std::size_t i = 0; i < direct.estimates_bps.size(); ++i) {
    EXPECT_EQ(replayed.estimates_bps[i].first, direct.estimates_bps[i].first);
    // Bit-identical, not EXPECT_NEAR: same records, same SIC arithmetic.
    EXPECT_EQ(replayed.estimates_bps[i].second, direct.estimates_bps[i].second);
  }
}

}  // namespace
}  // namespace vw::wren

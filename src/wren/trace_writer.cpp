#include "wren/trace_writer.hpp"

#include <stdexcept>
#include <utility>

namespace vw::wren {

TraceWriter::TraceWriter(net::Network& network, net::NodeId host, std::string path,
                         std::uint32_t shard)
    : network_(network), host_(host), path_(std::move(path)), shard_(shard) {
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) throw std::runtime_error("TraceWriter: cannot open " + path_);
  write_header();  // placeholder; finish() patches record_count in place
  tap_id_ = network_.add_host_tap(host_, [this](const net::TapEvent& ev) { on_tap(ev); });
}

TraceWriter::~TraceWriter() { finalize(); }

void TraceWriter::set_obs(const obs::Scope& scope) {
  c_captured_ = scope.counter("wren.trace.writer.captured");
  c_written_ = scope.counter("wren.trace.writer.written");
  c_bytes_ = scope.counter("wren.trace.writer.bytes");
}

void TraceWriter::on_tap(const net::TapEvent& ev) {
  const net::Packet& pkt = *ev.packet;
  if (pkt.flow.proto != net::Protocol::kTcp) return;  // Wren analyzes TCP only
  ++captured_;
  obs::add(c_captured_);
  const auto buf = encode_record(PacketRecord{
      .timestamp = ev.timestamp,
      .direction = ev.direction,
      .flow = pkt.flow,
      .payload_bytes = pkt.payload_bytes,
      .wire_bytes = pkt.size_bytes(),
      .seq = pkt.seq,
      .ack = pkt.ack,
      .is_ack = pkt.is_ack,
      .syn = pkt.syn,
  });
  out_.write(reinterpret_cast<const char*>(buf.data()), static_cast<std::streamsize>(buf.size()));
  if (!out_) return;  // a failed stream accepts nothing more; finish() reports it
  ++written_;
  bytes_ += buf.size();
  obs::add(c_written_);
  obs::add(c_bytes_, buf.size());
}

void TraceWriter::finish() {
  if (finished_) return;
  finalize();
  if (!out_) throw std::runtime_error("TraceWriter: write failed: " + path_);
}

void TraceWriter::finalize() {
  if (finished_) return;
  finished_ = true;
  network_.remove_host_tap(host_, tap_id_);
  out_.seekp(0);
  write_header();
  out_.close();
}

void TraceWriter::write_header() {
  TraceFileHeader header;
  header.host = host_;
  header.shard = shard_;
  header.record_count = written_;
  const auto hdr = encode_header(header);
  out_.write(reinterpret_cast<const char*>(hdr.data()), static_cast<std::streamsize>(hdr.size()));
}

}  // namespace vw::wren

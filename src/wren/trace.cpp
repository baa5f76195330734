#include "wren/trace.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace vw::wren {

namespace {
// First reservation, in records (1 KiB), so a host's first packets do not
// reallocate one by one.
constexpr std::size_t kMinReserve = 16;
}  // namespace

TraceFacility::TraceFacility(net::Network& network, net::NodeId host, std::size_t capacity)
    : network_(network), host_(host), capacity_(capacity) {
  VW_REQUIRE(capacity_ > 0, "TraceFacility: capacity must be positive");
  tap_id_ = network_.add_host_tap(host, [this](const net::TapEvent& ev) { on_tap(ev); });
}

TraceFacility::~TraceFacility() { network_.remove_host_tap(host_, tap_id_); }

void TraceFacility::set_obs(const obs::Scope& scope) {
  c_captured_ = scope.counter("wren.trace.captured");
  c_dropped_ = scope.counter("wren.trace.dropped");
  g_buffered_ = scope.gauge("wren.trace.buffered");
  g_capacity_bytes_ = scope.gauge("wren.trace.capacity_bytes");
  obs::set(g_buffered_, static_cast<double>(ring_.size()));
  obs::set(g_capacity_bytes_, static_cast<double>(capacity_bytes()));
}

void TraceFacility::grow() {
  ring_.reserve(std::min(capacity_, std::max(kMinReserve, 2 * ring_.capacity())));
  obs::set(g_capacity_bytes_, static_cast<double>(capacity_bytes()));
}

void TraceFacility::on_tap(const net::TapEvent& ev) {
  const net::Packet& pkt = *ev.packet;
  if (pkt.flow.proto != net::Protocol::kTcp) return;
  const PacketRecord record{
      .timestamp = ev.timestamp,
      .direction = ev.direction,
      .flow = pkt.flow,
      .payload_bytes = pkt.payload_bytes,
      .wire_bytes = pkt.size_bytes(),
      .seq = pkt.seq,
      .ack = pkt.ack,
      .is_ack = pkt.is_ack,
      .syn = pkt.syn,
  };
  if (ring_.size() < capacity_) {
    if (ring_.size() == ring_.capacity()) grow();
    ring_.push_back(record);
  } else {
    // Full: overwrite the oldest record in place (drop-oldest semantics).
    ring_[head_] = record;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    ++dropped_;
    obs::add(c_dropped_);
  }
  ++captured_;
  obs::add(c_captured_);
  obs::set(g_buffered_, static_cast<double>(ring_.size()));
}

std::vector<PacketRecord> TraceFacility::collect() {
  const auto oldest = ring_.begin() + static_cast<std::ptrdiff_t>(head_);
  std::vector<PacketRecord> out;
  out.reserve(ring_.size());
  out.insert(out.end(), oldest, ring_.end());
  out.insert(out.end(), ring_.begin(), oldest);
  ring_.clear();  // keeps the reservation
  head_ = 0;
  obs::set(g_buffered_, 0.0);
  return out;
}

}  // namespace vw::wren

#include "net/reservation.hpp"

namespace vw::net {

ReservationManager::~ReservationManager() {
  while (!reservations_.empty()) release(reservations_.begin()->first);
}

std::optional<ReservationId> ReservationManager::reserve_path(const FlowKey& flow,
                                                              double rate_bps,
                                                              std::int64_t burst_bytes) {
  std::vector<Channel*> hops;
  if (!network_.walk_route(flow.src, flow.dst, [&hops](Channel& ch) { hops.push_back(&ch); })) {
    return std::nullopt;  // unroutable
  }

  // All-or-nothing admission.
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (!hops[i]->add_reservation(flow, rate_bps, burst_bytes)) {
      for (std::size_t granted = 0; granted < i; ++granted) hops[granted]->remove_reservation(flow);
      return std::nullopt;
    }
  }

  const ReservationId id = next_id_++;
  reservations_[id] = Record{flow, rate_bps, std::move(hops)};
  return id;
}

void ReservationManager::release(ReservationId id) {
  auto it = reservations_.find(id);
  if (it == reservations_.end()) return;
  for (Channel* ch : it->second.hops) ch->remove_reservation(it->second.flow);
  reservations_.erase(it);
}

double ReservationManager::reserved_on(NodeId from, NodeId to) const {
  double total = 0;
  for (const auto& [id, rec] : reservations_) {
    for (const Channel* ch : rec.hops) {
      if (ch->from() == from && ch->to() == to) total += rec.rate_bps;
    }
  }
  return total;
}

}  // namespace vw::net

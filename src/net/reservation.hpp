#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/network.hpp"

// Path-level bandwidth reservations (paper opportunity 4: "reserve
// resources, when possible, to improve performance", realized in the
// paper's companion work via automatic optical network reservations).
// A reservation pins a guaranteed rate for one flow on every channel of its
// routed path, all-or-nothing, and can be released later.

namespace vw::net {

using ReservationId = std::uint64_t;

class ReservationManager {
 public:
  explicit ReservationManager(Network& network) : network_(network) {}

  ReservationManager(const ReservationManager&) = delete;
  ReservationManager& operator=(const ReservationManager&) = delete;

  ~ReservationManager();

  /// Reserve `rate_bps` for `flow` on every channel along the currently
  /// routed path flow.src -> flow.dst. Rolls back and returns nullopt when
  /// any hop lacks capacity (admission control) or the path is unroutable.
  std::optional<ReservationId> reserve_path(const FlowKey& flow, double rate_bps,
                                            std::int64_t burst_bytes = 32'768);

  /// Release a reservation on every channel it touched. Unknown ids are
  /// ignored (idempotent).
  void release(ReservationId id);

  std::size_t active() const { return reservations_.size(); }

  /// Total rate reserved on the directed channel from->to by this manager.
  double reserved_on(NodeId from, NodeId to) const;

 private:
  struct Record {
    FlowKey flow;
    double rate_bps;
    std::vector<Channel*> hops;  ///< the routed path at reservation time
  };

  Network& network_;
  std::map<ReservationId, Record> reservations_;
  ReservationId next_id_ = 1;
};

}  // namespace vw::net

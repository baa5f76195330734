#include "net/fault.hpp"

#include <utility>

#include "util/check.hpp"

namespace vw::net {

void FaultPlan::schedule(SimTime at, std::string label, std::function<void()> action) {
  VW_REQUIRE(at >= sim_.now(), "FaultPlan: cannot schedule '", label,
             "' in the past: at=", at, " now=", sim_.now());
  auto fire = [this, label = std::move(label), action = std::move(action)] {
    ++injected_;
    if (logger_) logger_->warn("fault", logcat("t=", to_seconds(sim_.now()), "s ", label));
    action();
  };
  sim_.schedule_at(at, std::move(fire));
}

void FaultPlan::link_down(SimTime at, NodeId a, NodeId b) {
  schedule(at, logcat("link ", a, "<->", b, " DOWN"),
           [this, a, b] { network_.set_link_down(a, b, true); });
}

void FaultPlan::link_up(SimTime at, NodeId a, NodeId b) {
  schedule(at, logcat("link ", a, "<->", b, " UP"),
           [this, a, b] { network_.set_link_down(a, b, false); });
}

void FaultPlan::link_outage(SimTime from, SimTime until, NodeId a, NodeId b) {
  VW_REQUIRE(until > from, "FaultPlan: outage must end after it starts: from=", from,
             " until=", until);
  link_down(from, a, b);
  link_up(until, a, b);
}

void FaultPlan::link_flap(SimTime from, SimTime period, SimTime down_for, NodeId a, NodeId b,
                          std::size_t cycles) {
  VW_REQUIRE(period > down_for, "FaultPlan: flap period ", period,
             " must exceed down time ", down_for);
  for (std::size_t i = 0; i < cycles; ++i) {
    const SimTime start = from + static_cast<SimTime>(i) * period;
    link_outage(start, start + down_for, a, b);
  }
}

void FaultPlan::link_loss(SimTime at, NodeId a, NodeId b, double p, const RngService& rngs) {
  schedule(at, logcat("link ", a, "<->", b, " loss=", p),
           [this, a, b, p, &rngs] { network_.set_link_loss(a, b, p, rngs); });
}

void FaultPlan::at(SimTime at_time, std::function<void()> action, std::string label) {
  schedule(at_time, std::move(label), std::move(action));
}

}  // namespace vw::net

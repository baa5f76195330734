#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

// Scripted failure injection for chaos scenarios: a FaultPlan schedules
// link outages, flaps, loss episodes and arbitrary actions against the
// physical network at fixed virtual times, so a failure scenario is
// reproducible bit-for-bit under a given seed. All times are absolute
// simulation times; scheduling in the past is a contract violation.

namespace vw::net {

class FaultPlan {
 public:
  FaultPlan(sim::Simulator& sim, Network& network, Logger* logger = nullptr)
      : sim_(sim), network_(network), logger_(logger) {}

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Take both directions of the a<->b link down at `at`.
  void link_down(SimTime at, NodeId a, NodeId b);

  /// Bring both directions of the a<->b link back up at `at`.
  void link_up(SimTime at, NodeId a, NodeId b);

  /// Outage window: down at `from`, back up at `until`.
  void link_outage(SimTime from, SimTime until, NodeId a, NodeId b);

  /// `cycles` consecutive outages of `down_for` each, spaced `period` apart
  /// starting at `from` (period must exceed down_for).
  void link_flap(SimTime from, SimTime period, SimTime down_for, NodeId a, NodeId b,
                 std::size_t cycles);

  /// Set packet loss probability `p` on both directions at `at`.
  void link_loss(SimTime at, NodeId a, NodeId b, double p, const RngService& rngs);

  /// Run an arbitrary action at `at` (daemon kills, VM churn, ...).
  void at(SimTime at, std::function<void()> action, std::string label = "action");

  /// Fault events fired so far.
  std::uint64_t faults_injected() const { return injected_; }

 private:
  void schedule(SimTime at, std::string label, std::function<void()> action);

  sim::Simulator& sim_;
  Network& network_;
  Logger* logger_;
  std::uint64_t injected_ = 0;
};

}  // namespace vw::net

#include "vadapt/incremental.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace vw::vadapt {

IncrementalEvaluator::IncrementalEvaluator(const CapacityGraph& graph,
                                           std::vector<Demand> demands, Objective objective)
    : graph_(&graph),
      demands_(std::move(demands)),
      objective_(objective),
      n_(graph.size()),
      index_(16, IndexEntry{kEmptyKey, 0}),
      index_shift_(64 - 4),
      hop_slots_(demands_.size()),
      bottleneck_(demands_.size(), 0.0),
      path_latency_(demands_.size(), 0.0),
      contrib_(demands_.size(), 0.0),
      affected_stamp_(demands_.size(), 0) {}

double IncrementalEvaluator::residual(HostIndex u, HostIndex v) const {
  const std::uint32_t slot = find_slot(u, v);
  return slot == kNoSlot ? graph_->bandwidth(u, v) : records_[slot].residual;
}

const std::vector<std::uint32_t>& IncrementalEvaluator::edge_users(HostIndex u,
                                                                    HostIndex v) const {
  const std::uint32_t slot = find_slot(u, v);
  return slot == kNoSlot ? no_users_ : records_[slot].users;
}

std::size_t IncrementalEvaluator::probe(std::uint64_t key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(key);
  while (index_[i].key != key && index_[i].key != kEmptyKey) i = (i + 1) & mask;
  return i;
}

std::uint32_t IncrementalEvaluator::find_slot(HostIndex u, HostIndex v) const {
  const IndexEntry& e = index_[probe(edge_key(u, v))];
  return e.key == kEmptyKey ? kNoSlot : e.slot;
}

void IncrementalEvaluator::put_entry(std::size_t i, const IndexEntry& e) {
  index_[i] = e;
  records_[e.slot].entry = static_cast<std::uint32_t>(i);
}

std::uint32_t IncrementalEvaluator::attach_slot(HostIndex u, HostIndex v) {
  const std::uint64_t key = edge_key(u, v);
  const std::size_t at = probe(key);
  if (index_[at].key == key) return index_[at].slot;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  // A released record kept its (empty) user list's capacity for reuse.
  records_[slot].u = static_cast<std::uint32_t>(u);
  records_[slot].v = static_cast<std::uint32_t>(v);
  put_entry(at, IndexEntry{key, slot});
  if (4 * tracked_edges() > index_.size()) {
    // Rehash into twice the size: keys are unique, so each lands on the
    // first empty entry of its probe run.
    std::vector<IndexEntry> old(2 * index_.size(), IndexEntry{kEmptyKey, 0});
    old.swap(index_);
    --index_shift_;
    for (const IndexEntry& e : old) {
      if (e.key != kEmptyKey) put_entry(probe(e.key), e);
    }
  }
  return slot;
}

void IncrementalEvaluator::release_slot(std::uint32_t slot) {
  VW_ASSERT(records_[slot].users.empty(),
            "IncrementalEvaluator: released an edge that still has users");
  std::size_t hole = records_[slot].entry;
  VW_ASSERT(index_[hole].slot == slot && index_[hole].key != kEmptyKey,
            "IncrementalEvaluator: edge index lost a record");
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless their home lies cyclically after it.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; index_[j].key != kEmptyKey; j = (j + 1) & mask) {
    if (((j - home(index_[j].key)) & mask) >= ((j - hole) & mask)) {
      put_entry(hole, index_[j]);
      hole = j;
    }
  }
  index_[hole].key = kEmptyKey;
  free_slots_.push_back(slot);
}

void IncrementalEvaluator::reset(const Configuration& conf) {
  VW_REQUIRE(conf.paths.size() == demands_.size(),
             "IncrementalEvaluator::reset: path/demand count mismatch (", conf.paths.size(),
             " vs ", demands_.size(), ")");
  VW_AUDIT(valid_mapping(conf.mapping, n_),
           "IncrementalEvaluator::reset: mapping not injective/in range");
  VW_AUDIT([&] {
    for (std::size_t d = 0; d < demands_.size(); ++d) {
      if (!valid_path(conf.paths[d], conf, demands_[d], n_)) return false;
    }
    return true;
  }(),
           "IncrementalEvaluator::reset: configuration carries an invalid forwarding path");
  // Only the paths that differ move: a demand whose host sequence is
  // unchanged keeps its edges, and so does every edge whose users stay.
  ++stamp_;
  affected_.clear();
  conf_.paths.resize(demands_.size());
  for (std::size_t d = 0; d < demands_.size(); ++d) {
    if (conf.paths[d] == conf_.paths[d]) continue;
    mark_affected(static_cast<std::uint32_t>(d));
    replace_path(d, conf.paths[d]);
  }
  conf_.mapping = conf.mapping;
  for (std::uint32_t id : affected_) rescore_demand(id);
  refresh_evaluation();
}

void IncrementalEvaluator::recompute_edge(EdgeRecord& rec) {
  // From-scratch, in ascending demand order: bit-identical to the reference
  // accumulation and free of add/subtract drift across moves.
  double r = graph_->bandwidth(rec.u, rec.v);
  for (std::uint32_t id : rec.users) r -= demands_[id].rate_bps;
  rec.residual = r;
}

void IncrementalEvaluator::rescore_demand(std::size_t d) {
  const std::vector<std::uint32_t>& slots = hop_slots_[d];
  double bottleneck = std::numeric_limits<double>::infinity();
  for (std::uint32_t slot : slots) bottleneck = std::min(bottleneck, records_[slot].residual);
  if (slots.empty()) bottleneck = 0;  // degenerate (mirrors evaluate)
  bottleneck_[d] = bottleneck;
  double contrib = bottleneck;
  // Only Eq. 3 reads the path latency.
  if (objective_.kind == ObjectiveKind::kResidualBandwidthLatency) {
    const Path& p = conf_.paths[d];
    double latency = 0;
    for (std::size_t i = 0; i + 1 < p.size(); ++i) latency += graph_->latency(p[i], p[i + 1]);
    path_latency_[d] = latency;
    if (latency > 0) contrib += objective_.latency_weight / latency;
  }
  if (deferred_) eval_.cost += contrib - contrib_[d];
  contrib_[d] = contrib;
}

void IncrementalEvaluator::refresh_evaluation() {
  // Deferred mode: eval_.cost is kept current by rescore_demand's O(1)
  // contribution patches; the canonical resum waits for exact_refresh().
  if (deferred_) return;
  // Same accumulation order as evaluate(): cost += bottleneck, then the
  // latency reward, demand by demand.
  eval_.min_residual_bps = std::numeric_limits<double>::infinity();
  double cost = 0;
  for (std::size_t d = 0; d < demands_.size(); ++d) {
    cost += bottleneck_[d];
    if (objective_.kind == ObjectiveKind::kResidualBandwidthLatency && path_latency_[d] > 0) {
      cost += objective_.latency_weight / path_latency_[d];
    }
    eval_.min_residual_bps = std::min(eval_.min_residual_bps, bottleneck_[d]);
  }
  eval_.cost = cost;
  eval_.feasible = eval_.min_residual_bps >= 0;
  if (demands_.empty()) {
    eval_.min_residual_bps = 0;
    eval_.feasible = true;
  }
}

void IncrementalEvaluator::set_deferred_cost(bool on) {
  if (deferred_ == on) return;
  deferred_ = on;
  // Entering: eval_.cost is exact (the invariant outside deferred mode) and
  // becomes the baseline the contribution deltas patch. Leaving: resum.
  if (!on) refresh_evaluation();
}

void IncrementalEvaluator::exact_refresh() {
  const bool was = deferred_;
  deferred_ = false;
  refresh_evaluation();
  deferred_ = was;
}

void IncrementalEvaluator::mark_affected(std::uint32_t d) {
  if (affected_stamp_[d] == stamp_) return;
  affected_stamp_[d] = stamp_;
  affected_.push_back(d);
}

void IncrementalEvaluator::set_path(std::size_t d, const Path& path) {
  VW_REQUIRE(d < demands_.size(), "IncrementalEvaluator::set_path: demand ", d,
             " out of range (", demands_.size(), ")");
  VW_AUDIT(valid_path(path, conf_, demands_[d], n_),
           "IncrementalEvaluator::set_path: invalid path for demand ", d);
  ++stamp_;
  affected_.clear();
  mark_affected(static_cast<std::uint32_t>(d));
  replace_path(d, path);
  for (std::uint32_t id : affected_) rescore_demand(id);
  refresh_evaluation();
}

void IncrementalEvaluator::replace_path(std::size_t d, const Path& path) {
  const auto id = static_cast<std::uint32_t>(d);
  Path& current = conf_.paths[d];
  // Hops inside the common prefix or suffix of the two paths stay as they
  // are: d keeps them and their residuals do not change. One insert, delete
  // or swap changes only the hops between; a hop there that both paths
  // happen to share is detached and re-attached, which is also exact.
  const std::size_t common = std::min(current.size(), path.size());
  std::size_t prefix = 0;
  while (prefix < common && current[prefix] == path[prefix]) ++prefix;
  std::size_t suffix = 0;
  while (suffix < common - prefix &&
         current[current.size() - 1 - suffix] == path[path.size() - 1 - suffix]) {
    ++suffix;
  }

  // Detach the old path: every hop outside the kept prefix and suffix drops
  // d and is recomputed. Either way the edge's other users are affected,
  // marked in the same order as if every edge were detached and
  // re-attached. An emptied record is released only after the attach, so an
  // edge both paths share keeps its record.
  std::vector<std::uint32_t>& slots = hop_slots_[d];
  old_slots_.assign(slots.begin(), slots.end());
  for (std::size_t j = 0; j < old_slots_.size(); ++j) {
    EdgeRecord& rec = records_[old_slots_[j]];
    if (j + 1 >= prefix && j + suffix < current.size()) {
      const auto it = std::lower_bound(rec.users.begin(), rec.users.end(), id);
      VW_ASSERT(it != rec.users.end() && *it == id,
                "IncrementalEvaluator: edge-user index lost demand ", d);
      rec.users.erase(it);
      recompute_edge(rec);
    }
    for (std::uint32_t other : rec.users) mark_affected(other);
  }

  // Attach the new path: a kept hop reuses its slot (its users are already
  // marked), any other edge is looked up or created.
  slots.clear();
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (i + 1 < prefix) {
      slots.push_back(old_slots_[i]);
      continue;
    }
    if (i + suffix >= path.size()) {
      slots.push_back(old_slots_[i + current.size() - path.size()]);
      continue;
    }
    const std::uint32_t slot = attach_slot(path[i], path[i + 1]);
    EdgeRecord& rec = records_[slot];
    rec.users.insert(std::lower_bound(rec.users.begin(), rec.users.end(), id), id);
    recompute_edge(rec);
    for (std::uint32_t other : rec.users) mark_affected(other);
    slots.push_back(slot);
  }
  current.assign(path.begin(), path.end());  // reuses the old vector's capacity
  for (std::uint32_t slot : old_slots_) {
    if (records_[slot].users.empty()) release_slot(slot);
  }
}

void IncrementalEvaluator::refresh_edge(HostIndex u, HostIndex v) {
  VW_REQUIRE(u < n_ && v < n_, "IncrementalEvaluator::refresh_edge: vertex out of range");
  // No record: no demand crosses the edge, and its residual reads the graph.
  const std::uint32_t slot = find_slot(u, v);
  if (slot == kNoSlot) return;
  EdgeRecord& rec = records_[slot];
  recompute_edge(rec);
  ++stamp_;
  affected_.clear();
  for (std::uint32_t id : rec.users) mark_affected(id);
  for (std::uint32_t id : affected_) rescore_demand(id);
  refresh_evaluation();
}

void IncrementalEvaluator::set_demand_rate(std::size_t d, double rate_bps) {
  VW_REQUIRE(d < demands_.size(), "IncrementalEvaluator::set_demand_rate: demand ", d,
             " out of range (", demands_.size(), ")");
  if (demands_[d].rate_bps == rate_bps) return;
  demands_[d].rate_bps = rate_bps;
  ++stamp_;
  affected_.clear();
  mark_affected(static_cast<std::uint32_t>(d));
  for (std::uint32_t slot : hop_slots_[d]) {
    EdgeRecord& rec = records_[slot];
    recompute_edge(rec);
    for (std::uint32_t id : rec.users) mark_affected(id);
  }
  for (std::uint32_t id : affected_) rescore_demand(id);
  refresh_evaluation();
}

}  // namespace vw::vadapt

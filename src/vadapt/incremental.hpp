#pragma once

#include <cstdint>
#include <vector>

#include "vadapt/problem.hpp"

// Delta evaluation for the VADAPT CEF (paper §4.1, Eq. 1 / Eq. 3).
//
// The simulated-annealing perturbation function changes one forwarding path
// per step, yet a from-scratch `evaluate` rebuilds the full O(n²) residual
// matrix and rescores every demand. IncrementalEvaluator keeps per-edge
// residuals and per-demand bottleneck/latency terms alive across iterations
// and applies O(path-length) deltas for a single-path replacement: only the
// edges of the outgoing and incoming paths — and the demands routed over
// those edges — are rescored.
//
// Storage is sparse: only an edge that carries at least one demand has a
// record {residual, ascending user list}. An edge without a record has no
// users, so its residual is exactly the graph's raw bandwidth — nothing is
// stored for it, and no state grows with n². Records live in a slot pool
// (freed slots, with their user lists' capacity, are recycled) found
// through one open-addressing hash index on the edge, and each demand keeps
// the slot of every hop of its path, so rescoring and detaching index
// records directly and only attaching a new hop looks one up.
//
// Bit-exactness contract: every number this class reports is bit-identical
// to what `evaluate(graph, demands, configuration())` would return. Touched
// edges are recomputed as capacity minus the rates of their users in
// ascending demand order — the exact accumulation order of
// `residual_capacities` — rather than patched by add/subtract (which would
// accumulate floating-point drift and diverge from the reference). The
// differential tests in tests/vadapt_incremental_test.cpp enforce this over
// long randomized walks.

namespace vw::vadapt {

class IncrementalEvaluator {
 public:
  /// The graph must outlive the evaluator; the demand list is copied.
  IncrementalEvaluator(const CapacityGraph& graph, std::vector<Demand> demands,
                       Objective objective = {});

  /// Adopt a configuration: O(D + Σ length of the paths that differ from
  /// the current ones + their edges' users). Only the changed paths are
  /// detached and attached; an edge whose users stay keeps its residual, so
  /// capacity changes must reach the evaluator through refresh_edge().
  /// Required after any mapping change.
  void reset(const Configuration& conf);

  /// Replace demand d's forwarding path and rescore only what it touched:
  /// O(|old| + |new| + Σ affected-path length). The path must be valid for
  /// the current mapping. Calling with the prior path restores the previous
  /// state exactly (the annealer's reject-revert).
  void set_path(std::size_t d, const Path& path);

  const Configuration& configuration() const { return conf_; }
  const Evaluation& evaluation() const { return eval_; }
  const std::vector<Demand>& demands() const { return demands_; }
  const Objective& objective() const { return objective_; }

  /// Residual capacity of one edge under the current configuration (the
  /// graph's bandwidth for an edge no demand crosses).
  double residual(HostIndex u, HostIndex v) const;

  /// Bottleneck of demand d's current path (0 for degenerate paths).
  double bottleneck(std::size_t d) const { return bottleneck_[d]; }

  /// Demands whose current path crosses edge (u, v), ascending by id.
  const std::vector<std::uint32_t>& edge_users(HostIndex u, HostIndex v) const;

  /// Number of edge records held: the distinct edges that carry a demand.
  std::size_t tracked_edges() const { return records_.size() - free_slots_.size(); }

  /// The underlying graph's capacity for edge (u, v) changed externally
  /// (warm-start delta patching): recompute the edge residual from the new
  /// capacity and rescore the demands routed over it. O(users + their path
  /// lengths + D); an edge no demand crosses has nothing to rescore. The
  /// graph object itself must already hold the new value.
  void refresh_edge(HostIndex u, HostIndex v);

  /// Demand d's rate changed externally (VTTIF drift): update the stored
  /// rate and rescore every edge on d's path plus the demands sharing those
  /// edges. O(path length * users + D).
  void set_demand_rate(std::size_t d, double rate_bps);

  /// Deferred-cost mode (warm-start bursts). While enabled, mutations keep
  /// evaluation().cost current by adding per-demand contribution deltas
  /// instead of the canonical O(D) resum — a set_path drops from
  /// O(paths + D) to O(paths) — but min_residual_bps/feasible go stale and
  /// the incrementally maintained cost can drift from the canonical sum by
  /// float rounding. Callers must finish an episode with exact_refresh()
  /// (or set_deferred_cost(false)) before exposing the evaluation; the cold
  /// annealer never enables this, so its per-iteration bit-exactness
  /// contract is untouched.
  void set_deferred_cost(bool on);
  bool deferred_cost() const { return deferred_; }

  /// The canonical O(D) resum (constructor/reset accumulation order):
  /// restores the bit-exactness contract after deferred-mode mutations.
  /// Keeps the current mode.
  void exact_refresh();

 private:
  /// State of one demand-carrying edge.
  struct EdgeRecord {
    double residual = 0;
    std::vector<std::uint32_t> users;  ///< ascending demand ids
    std::uint32_t u = 0;
    std::uint32_t v = 0;
    std::uint32_t entry = 0;  ///< its position in index_
  };
  /// One entry of the edge index: edge key u * n + v -> record slot.
  struct IndexEntry {
    std::uint64_t key;
    std::uint32_t slot;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  std::uint64_t edge_key(HostIndex u, HostIndex v) const { return u * n_ + v; }
  /// Fibonacci hash: the top bits of key * 2^64/phi pick the home entry.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> index_shift_);
  }
  /// The index entry holding `key`, or the empty entry that ends its probe run.
  std::size_t probe(std::uint64_t key) const;
  std::uint32_t find_slot(HostIndex u, HostIndex v) const;
  /// The slot of edge (u, v), creating a record with no users (and no
  /// residual yet) if the edge has none. May grow records_: references into
  /// it do not survive the call.
  std::uint32_t attach_slot(HostIndex u, HostIndex v);
  /// Place an entry at index_[i] and tell its record where it is.
  void put_entry(std::size_t i, const IndexEntry& e);
  /// Return an empty record to the pool and drop it from the index.
  void release_slot(std::uint32_t slot);
  /// Move demand d onto `path`: update and recompute the edges that
  /// change, release the ones left without users, and mark every demand
  /// sharing an old or new edge (d itself is the caller's to mark).
  void replace_path(std::size_t d, const Path& path);
  void recompute_edge(EdgeRecord& rec);
  void rescore_demand(std::size_t d);
  void refresh_evaluation();
  void mark_affected(std::uint32_t d);

  const CapacityGraph* graph_;
  std::vector<Demand> demands_;
  Objective objective_;
  std::size_t n_ = 0;

  Configuration conf_;
  Evaluation eval_;
  std::vector<EdgeRecord> records_;          ///< slot pool
  std::vector<std::uint32_t> free_slots_;    ///< released slots, reused first
  /// Open addressing with linear probing and backward-shift deletion; a
  /// power-of-two size kept at least four times the record count, so most
  /// lookups hit their home entry.
  std::vector<IndexEntry> index_;
  unsigned index_shift_ = 0;  ///< 64 - log2(index_.size())
  /// hop_slots_[d][i] = slot of edge (paths[d][i], paths[d][i + 1]).
  std::vector<std::vector<std::uint32_t>> hop_slots_;
  std::vector<std::uint32_t> no_users_;  ///< edge_users() of an edge without a record; stays empty
  std::vector<double> bottleneck_;    ///< per demand
  std::vector<double> path_latency_;  ///< per demand; kept under Eq. 3 only
  /// Per-demand cost contribution (bottleneck + latency reward), maintained
  /// by rescore_demand so deferred mode can patch eval_.cost in O(1).
  std::vector<double> contrib_;
  bool deferred_ = false;

  // Scratch for set_path and reset: the outgoing path's slots, and
  // epoch-stamped dedup of affected demands.
  std::vector<std::uint32_t> old_slots_;
  std::vector<std::uint32_t> affected_;
  std::vector<std::uint32_t> affected_stamp_;
  std::uint32_t stamp_ = 0;
};

}  // namespace vw::vadapt

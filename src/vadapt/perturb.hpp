#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "vadapt/problem.hpp"

// The annealer's perturbation moves (paper §4.3), shared between the
// full simulated_annealing loop (annealing.cpp) and the warm-start bursts
// (warm_start.cpp). Factored out so both draw bit-identical moves from the
// same random sequence — the warm-start differential oracle depends on the
// moves themselves being byte-for-byte the code the cold path runs.

namespace vw::vadapt::detail {

inline Path direct_path(const Configuration& conf, const Demand& d) {
  return Path{conf.mapping[d.src], conf.mapping[d.dst]};
}

inline void reset_paths_direct(Configuration& conf, const std::vector<Demand>& demands) {
  conf.paths.resize(demands.size());
  for (std::size_t d = 0; d < demands.size(); ++d) {
    conf.paths[d].assign({conf.mapping[demands[d].src], conf.mapping[demands[d].dst]});
  }
}

/// Reusable buffers so the perturb helpers allocate nothing per iteration
/// (after warm-up): a host-indexed flag array and a host pool (the mapping
/// move's free hosts, or the insert move's sorted path hosts).
struct PerturbScratch {
  std::vector<char> flags;
  std::vector<HostIndex> pool;
};

/// Insert a random vertex (not already on the path) at a random interior
/// position. No-op when every vertex is already on the path. O(path log
/// path): the r-th host not on the path is found by walking the path's
/// sorted hosts, which draws exactly what indexing an ascending pool of the
/// free hosts would.
inline void perturb_insert(Path& path, std::size_t n_hosts, Rng& rng, PerturbScratch& scratch) {
  if (path.size() >= n_hosts) return;
  std::vector<HostIndex>& on_path = scratch.pool;
  on_path.assign(path.begin(), path.end());
  std::sort(on_path.begin(), on_path.end());
  on_path.erase(std::unique(on_path.begin(), on_path.end()), on_path.end());
  const std::size_t n_free = n_hosts - on_path.size();
  if (n_free == 0) return;
  auto v = static_cast<HostIndex>(rng.uniform_int(0, static_cast<std::int64_t>(n_free) - 1));
  for (HostIndex h : on_path) {
    if (h > v) break;
    ++v;  // h is taken: the r-th free host lies one further on
  }
  // Interior positions are 1..size-1 (endpoints stay fixed).
  const auto pos = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(path.size()) - 1));
  path.insert(path.begin() + static_cast<std::ptrdiff_t>(pos), v);
}

/// Delete a random interior vertex; no-op on direct paths.
inline void perturb_delete(Path& path, Rng& rng) {
  if (path.size() <= 2) return;
  const auto pos = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(path.size()) - 2));
  path.erase(path.begin() + static_cast<std::ptrdiff_t>(pos));
}

/// Swap two distinct interior vertices; no-op when fewer than two. A
/// coinciding second draw is offset to the next interior slot so the move
/// never silently degrades to a no-op.
inline void perturb_swap(Path& path, Rng& rng) {
  if (path.size() <= 3) return;
  const auto lo = static_cast<std::int64_t>(1);
  const auto hi = static_cast<std::int64_t>(path.size()) - 2;
  const auto x = static_cast<std::size_t>(rng.uniform_int(lo, hi));
  auto y = static_cast<std::size_t>(rng.uniform_int(lo, hi));
  if (x == y) {
    y = static_cast<std::size_t>(lo) +
        (y - static_cast<std::size_t>(lo) + 1) % static_cast<std::size_t>(hi - lo + 1);
  }
  std::swap(path[x], path[y]);
}

inline void perturb_mapping(Configuration& conf, std::size_t n_hosts, Rng& rng,
                            PerturbScratch& scratch) {
  const std::size_t n_vms = conf.mapping.size();
  if (n_vms == 0) return;
  scratch.flags.assign(n_hosts, 0);
  for (HostIndex h : conf.mapping) scratch.flags[h] = 1;
  scratch.pool.clear();
  for (HostIndex h = 0; h < n_hosts; ++h) {
    if (!scratch.flags[h]) scratch.pool.push_back(h);
  }

  const bool can_move = !scratch.pool.empty();
  const bool can_swap = n_vms >= 2;
  if (!can_move && !can_swap) return;
  const bool do_move = can_move && (!can_swap || rng.chance(0.5));
  if (do_move) {
    const auto vm = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_vms) - 1));
    const HostIndex target = scratch.pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(scratch.pool.size()) - 1))];
    conf.mapping[vm] = target;
  } else {
    const auto a = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_vms) - 1));
    auto b = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n_vms) - 1));
    if (a == b) b = (b + 1) % n_vms;
    std::swap(conf.mapping[a], conf.mapping[b]);
  }
}

}  // namespace vw::vadapt::detail

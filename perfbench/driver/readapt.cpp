// readapt_1k: one controller streaming seeded wren::ViewDeltas into
// vadapt::WarmStartOptimizer on a BRITE overlay of 1024 hosts with a
// 1024-VM ring. A quarter of the deltas narrow one random pair (almost
// never on a routed path, so the burst has no targets); the rest widen one
// (the optimizer then gathers a full neighborhood of demands whose
// bottleneck the wider edge could lift). Every kOracleEvery deltas a cold
// multi_start_annealing solve of the patched graph is the oracle the warm
// incumbent is compared with. No simulator or packet code runs.
//
// The kinds sit in a seeded order but in fixed proportion, so the latency
// percentiles fall inside one kind's distribution for every seed.
//
// The cold solves start every chain from a random configuration, as
// bench/micro_vadapt_warm does: at 1024 VMs the greedy seed's widest-path
// trees would dominate the solve. They are the only multi-threaded part of
// the benchmark (one worker per chain, at most the CPU count).

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "obs/scope.hpp"
#include "topo/brite.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "vadapt/multistart.hpp"
#include "vadapt/problem.hpp"
#include "vadapt/warm_start.hpp"
#include "wren/delta.hpp"

using namespace vw;
using namespace vw::vadapt;

namespace perfbench {

namespace {

constexpr std::size_t kHosts = 1024;
constexpr std::size_t kSteps = 600;
constexpr std::size_t kOracleEvery = 150;
/// Half the narrowest BRITE link (10 Mb/s), so every overlay pair carries
/// one demand even after a narrowing delta halves it: a feasible plan
/// always exists. At 20 Mb/s about 7% of the pairs cannot carry one, and
/// the random-start solves at 1024 VMs return plans that VADAPT reports
/// as infeasible (it reports feasibility, it does not enforce it).
constexpr double kRingRate = 5e6;
/// The overlay is a stated input, the same for every seed (as in
/// bench/micro_vadapt_warm): the seed drives the delta stream and the
/// solvers, so run time does not swing with which topology a seed drew.
constexpr std::uint64_t kTopologySeed = 11;

}  // namespace

RepResult run_readapt(std::uint64_t seed) {
  RepResult rep;
  Stopwatch setup_clock;
  RngService rngs(seed);

  obs::MetricsRegistry registry;
  const obs::Scope scope{&registry, nullptr};

  std::unique_ptr<CapacityGraph> graph;
  {
    Span span("topo.build");
    topo::BriteParams params;
    params.nodes = kHosts;
    const topo::BriteTopology brite(params, Rng(kTopologySeed));
    Rng pick(kTopologySeed + 1);
    graph = std::make_unique<CapacityGraph>(brite.overlay_capacity_graph(kHosts, pick));
  }
  std::vector<Demand> demands;
  for (std::size_t i = 0; i < kHosts; ++i) {
    demands.push_back({static_cast<VmIndex>(i), static_cast<VmIndex>((i + 1) % kHosts), kRingRate});
  }

  MultiStartParams cold;
  cold.annealing.obs = scope;
  const std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(std::min(cold.chains, cpus));
  cold.pool = &pool;
  Rng cold_seeds = rngs.stream("readapt.cold");
  const auto cold_solve = [&](const CapacityGraph& g) {
    cold.seed = static_cast<std::uint64_t>(cold_seeds.uniform_int(1, 1ll << 40));
    Span span("vadapt.cold.solve");
    return multi_start_annealing(g, demands, kHosts, Objective{}, cold);
  };

  WarmStartParams wp;
  wp.enabled = true;
  wp.obs = scope;
  WarmStartOptimizer warm(wp);
  warm.adopt(*graph, demands, kHosts, cold_solve(*graph).best.best);

  // The delta stream: kinds in seeded order, fixed proportions.
  Rng stream = rngs.stream("readapt.deltas");
  std::vector<char> widen(kSteps, 1);
  std::fill(widen.begin(), widen.begin() + kSteps / 4, 0);
  shuffle(widen, stream);
  struct Step {
    HostIndex u = 0, v = 0;
    double bandwidth = 0;
  };
  std::vector<Step> steps;
  for (std::size_t s = 0; s < kSteps; ++s) {
    const auto u = static_cast<HostIndex>(stream.uniform_int(0, kHosts - 1));
    auto v = static_cast<HostIndex>(stream.uniform_int(0, kHosts - 2));
    if (v >= u) ++v;
    steps.push_back({u, v, graph->bandwidth(u, v) * (widen[s] ? 2.0 : 0.5)});
  }
  rep.setup_s = setup_clock.seconds();

  double run_s = 0;
  std::uint64_t targets = 0, iterations = 0;
  std::vector<double>& ratios = rep.series["plan_cost_ratio"];
  for (std::size_t s = 0; s < kSteps; ++s) {
    wren::ViewDelta delta;
    delta.note_bandwidth(graph->hosts()[steps[s].u], graph->hosts()[steps[s].v],
                         steps[s].bandwidth);
    Rng burst = rngs.stream("readapt.burst." + std::to_string(s));
    WarmAdaptStats stats;
    {
      Stopwatch adapt_clock;
      Span span(widen[s] ? "vadapt.warm.widen" : "vadapt.warm.narrow");
      stats = warm.adapt(delta, demands, burst);
      run_s += adapt_clock.seconds();
    }
    targets += stats.target_demands;
    iterations += stats.burst_iterations;
    rep.check("readapt_1k: warm plan feasible", warm.evaluation().feasible);
    rep.check("readapt_1k: burst did not lower the patched incumbent's cost",
              stats.cost_after >= stats.cost_before);
    if ((s + 1) % kOracleEvery == 0) {
      const MultiStartResult oracle = cold_solve(warm.graph());
      ratios.push_back(warm.evaluation().cost / oracle.best.best_evaluation.cost);
    }
  }
  rep.run_s = run_s;

  rep.count("vadapt.warm.steps", kSteps);
  rep.count("vadapt.warm.target_demands", targets);
  rep.count("vadapt.warm.burst_iterations", iterations);
  rep.digest["vadapt.warm.final_cost"] = exact(warm.evaluation().cost);
  std::string ratio_text;
  for (const double r : ratios) ratio_text += exact(r) + ";";
  rep.digest["plan_cost_ratio"] = ratio_text;
  const obs::MetricsSnapshot snap = registry.snapshot();
  for (const char* name : {"vadapt.warm.adapts", "vadapt.sa.iterations", "vadapt.sa.runs"}) {
    rep.count(name, counter(snap, name));
  }
  return rep;
}

}  // namespace perfbench

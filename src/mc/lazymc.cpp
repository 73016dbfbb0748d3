#include "mc/lazymc.hpp"

#include <algorithm>

#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "mc/heuristic.hpp"
#include "mc/incumbent.hpp"
#include "support/timer.hpp"

namespace lazymc::mc {

LazyMCResult lazy_mc(const Graph& g, const LazyMCConfig& config) {
  LazyMCResult result;
  if (g.num_vertices() == 0) return result;

  // Per-request isolation: a caller-owned control (daemon request) wins
  // over a solve-local one.  Everything below takes the reference, so the
  // solve is oblivious to who owns its lifecycle.
  SolveControl own_control(config.time_limit_seconds);
  SolveControl& control = config.control ? *config.control : own_control;
  SearchStats stats;  // declared early: kernel counters span all phases
  IntersectPolicy policy{config.early_exit_intersections, config.second_exit};
  policy.counters = &stats.kernels;
  Incumbent incumbent;
#if LAZYMC_CHECKED_ENABLED
  // End-to-end invariant: every incumbent any thread publishes — from the
  // heuristics, the dense B&B or the VC route — must be an actual clique
  // of the input graph.
  incumbent.set_verifier(
      [&g](std::span<const VertexId> clique) { return is_clique(g, clique); });
#endif
  // Anytime instrumentation: every improving install is stamped against
  // the solve clock (time_to_first_solution = first entry).  The phase
  // timer cannot serve here — lap() restarts it at every phase boundary.
  WallTimer solve_clock;
  incumbent.enable_history(&solve_clock);
  WallTimer timer;

  // ---- 1. degree-based heuristic search (Algorithm 1 line 3) -----------
  {
    HeuristicOptions h;
    h.top_k = config.heuristic_top_k;
    h.intersect = policy;
    h.control = &control;
    result.heuristic_degree = degree_based_heuristic(g, incumbent, h);
  }
  result.heuristic_degree_omega = incumbent.size();
  result.phases.degree_heuristic = timer.lap();

  // ---- 2-3. k-core, then (coreness, degree) order ----------------------
  // Algorithm 1 peels KCore(G, |C*|); the full peel is exact for every
  // incumbent and was faster on most graphs.  A binary store ships the
  // same decomposition and order precomputed, so there the whole phase
  // collapses to two pointer bindings.  Any mismatch — wrong order kind,
  // stale sizes — falls back to computing from scratch.
  const PrebuiltGraph* pre = config.prebuilt;
  const bool use_prebuilt =
      pre && pre->order && pre->coreness &&
      config.vertex_order == VertexOrderKind::kCorenessDegree &&
      pre->order->size() == g.num_vertices() &&
      pre->coreness->size() == g.num_vertices();
  kcore::CoreDecomposition core;
  kcore::VertexOrder order;
  const kcore::VertexOrder* order_ref = &order;
  const std::vector<VertexId>* coreness_ref = &core.coreness;
  if (use_prebuilt) {
    order_ref = pre->order;
    coreness_ref = pre->coreness;
    result.degeneracy = pre->degeneracy;
  } else {
    // The full decomposition serves both orders; the peeling order is the
    // Matula–Beck sequence (the order MC-BRB and friends get "for free").
    core = kcore::coreness(g);
    order = config.vertex_order == VertexOrderKind::kPeeling
                ? kcore::order_from_peel(g, core.peel_order)
                : kcore::order_by_coreness_degree(g, core.coreness);
    result.degeneracy = core.degeneracy;
  }
  result.phases.preprocessing = timer.lap();

  // ---- 4. lazy graph, rows over the zone fixed at ω_d ------------------
  LazyGraph lazy(g, *order_ref, *coreness_ref, &incumbent.size_atomic());
  lazy.set_preferred_rep(config.neighborhood_rep);
  // Bitset rows cover the zone of interest fixed by the incumbent the
  // degree heuristic found; forcing hash/sorted turns them off entirely.
  // Stored rows are adopted zero-copy when their zone covers the live
  // one; an incompatible store degrades to lazily built rows, never to a
  // wrong answer.
  bool adopted = false;
  if (use_prebuilt && pre->rows.valid() && config.bitset_budget_bytes > 0 &&
      config.neighborhood_rep != NeighborhoodRep::kHash &&
      config.neighborhood_rep != NeighborhoodRep::kSorted) {
    adopted = lazy.adopt_prebuilt_rows(pre->rows, /*hybrid=*/false);
  }
  if (!adopted && config.bitset_budget_bytes > 0 &&
      (config.neighborhood_rep == NeighborhoodRep::kAuto ||
       config.neighborhood_rep == NeighborhoodRep::kBitset)) {
    lazy.enable_bitset_rows(config.bitset_budget_bytes);
  }
  result.phases.must_subgraph = timer.lap();

  // ---- 5. coreness-based heuristic search ------------------------------
  {
    HeuristicOptions h;
    h.top_k = config.heuristic_top_k;
    h.intersect = policy;
    h.control = &control;
    coreness_based_heuristic(lazy, incumbent, h);
  }
  result.heuristic_coreness_omega = incumbent.size();
  result.phases.coreness_heuristic = timer.lap();

  // ---- 4b. must-subgraph prepopulation at the heuristic's bound --------
  // Algorithm 1 prepopulates before the coreness heuristic, at ω_d; on
  // graphs where ω_h ≫ ω_d almost all of that would serve vertices the
  // search never reaches.  The zone stays fixed at ω_d.
  lazy.prepopulate(config.prepopulate, /*must_threshold=*/incumbent.size());
  result.phases.must_subgraph += timer.lap();

  // ---- 6. systematic search --------------------------------------------
  {
    NeighborSearchOptions n;
    n.density_threshold = config.density_threshold;
    n.degree_filter_rounds = config.degree_filter_rounds;
    n.vc_node_budget_per_vertex = config.vc_node_budget_per_vertex;
    n.intersect = policy;
    n.control = &control;
    systematic_search(lazy, incumbent, n, stats);
  }
  result.phases.systematic = timer.lap();

  result.clique = incumbent.snapshot();
  std::sort(result.clique.begin(), result.clique.end());
  result.omega = static_cast<VertexId>(result.clique.size());
  result.timed_out = control.cancelled();

  SearchStatsSnapshot& out = result.search;
#define LAZYMC_COPY(name) out.name = stats.name.load();
  LAZYMC_SEARCH_COUNTERS(LAZYMC_COPY)
#undef LAZYMC_COPY
#define LAZYMC_COPY(name) out.kernel_##name = stats.kernels.name.load();
  LAZYMC_KERNEL_COUNTERS(LAZYMC_COPY)
#undef LAZYMC_COPY
#define LAZYMC_COPY(phase) out.phase##_seconds = stats.phase##_seconds();
  LAZYMC_SEARCH_TIMERS(LAZYMC_COPY)
#undef LAZYMC_COPY
  out.improvements = incumbent.history();
  out.time_to_first_solution =
      out.improvements.empty() ? 0.0 : out.improvements.front().seconds;
  result.lazy_graph = lazy.stats();
  return result;
}

}  // namespace lazymc::mc

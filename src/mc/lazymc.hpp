// LazyMC — the paper's maximum clique algorithm (Algorithm 1).
//
//   1. degree-based heuristic search on the raw graph;
//   2. coreness restricted to vertices with degree >= |C*| (KCore(G,|C*|));
//   3. (coreness, degree) vertex order via counting sorts;
//   4. lazy filtered hashed relabelled graph, optionally prepopulating the
//      must subgraph;
//   5. coreness-based heuristic search on the lazy graph;
//   6. systematic search with advance filtering and algorithmic choice.
//
// The result carries the full instrumentation needed to regenerate the
// paper's Figures 2-7 and Table III.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/heuristic.hpp"
#include "mc/neighbor_search.hpp"
#include "mc/search_counters.hpp"
#include "support/control.hpp"

namespace lazymc::mc {

/// Vertex-order strategy (Section IV-F).
enum class VertexOrderKind {
  /// (coreness asc, degree asc) via parallel counting sorts — LazyMC's
  /// order; works with the parallel k-core computation.
  kCorenessDegree,
  /// Matula–Beck peeling order from the *sequential* k-core computation.
  /// Guarantees right-neighborhoods <= coreness but serializes
  /// preprocessing (the paper notes all peeling-order MC algorithms are
  /// sequential).
  kPeeling,
};

/// Preprocessed inputs carried by a binary graph store
/// (store/binary_graph.hpp).  When a LazyMCConfig points at one, lazy_mc
/// consumes the stored (coreness, degree) order and exact coreness
/// instead of recomputing the k-core decomposition, and — when the
/// stored zone is compatible with the live incumbent — adopts the
/// stored packed rows zero-copy (LazyGraph::adopt_prebuilt_rows) so no
/// row is ever rebuilt.  Everything here is borrowed: the pointers (and
/// the mapping behind `rows`) must outlive the solve.
struct PrebuiltGraph {
  const kcore::VertexOrder* order = nullptr;
  /// Exact coreness by original vertex id (valid for any incumbent the
  /// heuristics produce).
  const std::vector<VertexId>* coreness = nullptr;
  VertexId degeneracy = 0;
  PrebuiltRows rows{};
};

struct LazyMCConfig {
  /// Seeds for the degree-based heuristic search.
  VertexId heuristic_top_k = 16;
  /// Vertex-order strategy.
  VertexOrderKind vertex_order = VertexOrderKind::kCorenessDegree;
  // Ignored; kept only because lmcbench/main.cpp reads it.
  bool color_prune = false;
  /// Density threshold φ for algorithmic choice; see
  /// NeighborSearchOptions::density_threshold (swept by bench_fig6).
  double density_threshold = 0.60;
  /// Rounds of induced-degree filtering before a detailed search (paper
  /// default: 2); see NeighborSearchOptions::degree_filter_rounds.
  unsigned degree_filter_rounds = 2;
  /// k-VC misprediction budget; see
  /// NeighborSearchOptions::vc_node_budget_per_vertex (0 disables).
  std::uint64_t vc_node_budget_per_vertex = 2000;
  /// Prepopulation policy for the lazy graph (Fig. 4 ablation).
  Prepopulate prepopulate = Prepopulate::kMustSubgraph;
  /// Neighborhood representation the lazy graph builds on first use:
  /// kAuto (degree rule, bitset rows when cheap), or force kHash /
  /// kSorted / kBitset.  kHash and kSorted also disable bitset rows
  /// entirely ("bitset off" in ablations).
  NeighborhoodRep neighborhood_rep = NeighborhoodRep::kAuto;
  /// Memory budget for bitset rows over the zone of interest, in bytes;
  /// 0 disables the bitset representation.
  std::size_t bitset_budget_bytes = std::size_t{64} << 20;
  /// Early-exit intersection toggles (Fig. 5 ablation).
  bool early_exit_intersections = true;
  bool second_exit = true;
  // Ignored; kept only because lmcbench/main.cpp reads it.
  bool pre_extraction_density = false;
  SplitMode split_mode = SplitMode::kAuto;
  VertexId split_min_cands = 128;
  unsigned split_depth = 2;
  std::uint64_t split_min_work = 0;
  /// Wall-clock limit in seconds (Table II uses 1800 in the paper).
  double time_limit_seconds = std::numeric_limits<double>::infinity();
  /// Caller-owned request control.  When set, the solve observes *this*
  /// control for cancellation/deadline instead of constructing its own
  /// (time_limit_seconds is then ignored — the control carries the
  /// budget), and the caller keeps a handle to cancel the in-flight
  /// solve (watchdog, client abort, drain) and to classify how it ended
  /// (SolveControl::stop_cause()).  This is the per-request isolation
  /// seam the daemon multiplexes on: one control, one incumbent, one
  /// stats block per request, nothing shared but the pool.  Must outlive
  /// the lazy_mc call.
  SolveControl* control = nullptr;
  /// Preprocessing shipped by a binary graph store; nullptr = compute
  /// everything from scratch (the normal path).  Only honored when
  /// vertex_order == kCorenessDegree (the order the store serializes)
  /// and the sizes match the input graph; otherwise silently ignored —
  /// a solve never fails because a store was stale, it just recomputes.
  const PrebuiltGraph* prebuilt = nullptr;
};

/// Per-phase wall-clock seconds (Fig. 2 / Fig. 7 stacks).
struct PhaseTimes {
  double degree_heuristic = 0;
  double preprocessing = 0;   // k-core + ordering
  double must_subgraph = 0;   // lazy-graph construction, row enabling
                              // and prepopulation (after the coreness
                              // heuristic: two laps summed)
  double coreness_heuristic = 0;
  double systematic = 0;

  double total() const {
    return degree_heuristic + preprocessing + must_subgraph +
           coreness_heuristic + systematic;
  }
};

/// Plain-value copy of SearchStats (which is atomic and non-copyable),
/// generated from the counter lists in mc/search_counters.hpp: each search
/// counter under its own name, each kernel count as kernel_<name>, each
/// timer as <phase>_seconds.
struct SearchStatsSnapshot {
#define LAZYMC_FIELD(name) std::uint64_t name = 0;
  LAZYMC_SEARCH_COUNTERS(LAZYMC_FIELD)
#undef LAZYMC_FIELD
#define LAZYMC_FIELD(name) std::uint64_t kernel_##name = 0;
  LAZYMC_KERNEL_COUNTERS(LAZYMC_FIELD)
#undef LAZYMC_FIELD
#define LAZYMC_FIELD(phase) double phase##_seconds = 0;
  LAZYMC_SEARCH_TIMERS(LAZYMC_FIELD)
#undef LAZYMC_FIELD
  // Anytime behaviour: when each improving incumbent was installed,
  // measured from solver start.  time_to_first_solution is the first
  // entry's timestamp (0 when no solution was found).
  double time_to_first_solution = 0;
  std::vector<IncumbentImprovement> improvements;

  double work_seconds() const {
    return filter_seconds + mc_seconds + vc_seconds;
  }
};

struct LazyMCResult {
  /// A maximum clique in original vertex ids (empty for the empty graph).
  std::vector<VertexId> clique;
  /// omega(G) == clique.size() unless timed_out.
  VertexId omega = 0;
  /// Incumbent size after the degree-based heuristic (Table I's ωd).
  VertexId heuristic_degree_omega = 0;
  /// Incumbent size after the coreness-based heuristic (Table I's ωh).
  VertexId heuristic_coreness_omega = 0;
  /// What the degree-based heuristic built and regrew.
  DegreeHeuristicStats heuristic_degree;
  /// Graph degeneracy d(G): the largest coreness of the full
  /// decomposition, or the store header's value on the store path.
  VertexId degeneracy = 0;
  bool timed_out = false;

  PhaseTimes phases;
  SearchStatsSnapshot search;
  LazyGraph::Stats lazy_graph;
};

/// Runs LazyMC on g.  Thread count comes from the global pool
/// (lazymc::set_num_threads).
LazyMCResult lazy_mc(const Graph& g, const LazyMCConfig& config = {});

}  // namespace lazymc::mc

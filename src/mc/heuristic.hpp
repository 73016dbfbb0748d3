// Heuristic (greedy, inexact) clique searches that prime the incumbent
// (paper Section IV-C, Algorithms 5 and 6).
//
// Degree-based search runs on the *original* graph before any
// preprocessing: it seeds from the top-K highest-degree vertices, keeps the
// seed's neighbours whose degree is at least |C*|, and greedily adds the
// candidate with the most neighbours inside the shrinking candidate set C
// (ties to the smallest id).  A good incumbent here shrinks the k-core
// computation and the must subgraph.
//
//  * Bitset greedy.  Once |C| <= 4096, C is indexed by position and each
//    candidate gets a bitset row of its neighbours in C, built through a
//    per-thread global-id -> position map.  A step is then one popcount of
//    (row & live) per live candidate, and C shrinks by live &= row[best].
//  * Cap.  While |C| > 4096 (hub seeds), steps run on sorted lists with
//    intersect-size-gt-val keyed to the running maximum; that prefix is
//    the only part the intersection policy (early exits) affects.  The
//    cap bounds the rows at 2 MiB per thread.
//  * Schedule-independent result.  Each seed's degree filter is the
//    incumbent size a 1-thread run in seed order would see, and cliques
//    are offered in seed order, so omega_d and the incumbent clique are
//    the same at every thread count.
//
// Coreness-based search runs on the lazy relabelled graph: one seed per
// degeneracy level, greedily taking the highest-numbered (= highest
// coreness) candidate, with intersect-gt keyed to |C*| - |C| so hopeless
// seeds abandon early.
#pragma once

#include "graph/graph.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/incumbent.hpp"
#include "mc/intersect_policy.hpp"
#include "support/control.hpp"

namespace lazymc::mc {

struct HeuristicOptions {
  /// Number of top-degree seeds for the degree-based search.
  VertexId top_k = 16;
  IntersectPolicy intersect;
  const SolveControl* control = nullptr;
};

/// Algorithm 5.  Offers every grown clique to `incumbent` (original ids).
void degree_based_heuristic(const Graph& g, Incumbent& incumbent,
                            const HeuristicOptions& options = {});

/// Algorithm 6.  Seeds one greedy growth per coreness level of `h`;
/// offers results to `incumbent` in original ids.
void coreness_based_heuristic(LazyGraph& h, Incumbent& incumbent,
                              const HeuristicOptions& options = {});

}  // namespace lazymc::mc

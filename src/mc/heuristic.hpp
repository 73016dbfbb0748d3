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
//    candidate gets a bitset row of its neighbours in C.  A step is then
//    one popcount of (row & live) per live candidate, and C shrinks by
//    live &= row[best].
//  * Shared union rows.  The seeds sit in one dense region, so their
//    candidate sets overlap.  Seed 0 runs alone and fixes the bound the
//    others start under; U, the union of seeds 1..K-1's candidate sets
//    under that bound, then gets its rows built once, one CSR scan per
//    member, in parallel.  Every later bound is at least as large, so
//    every later C lies in U, and each seed cuts its rows out of U's:
//    C marked in U's words is the mask, and PEXT compresses each member's
//    row to C's positions.  The rows are bit-identical to a per-seed
//    build.
//  * Fallback.  U is not built when it has over 4096 members, or when its
//    rows would cost more than the per-seed rows they replace (counted
//    in matrix words and CSR entries: candidate sets that barely overlap,
//    or whose members have few neighbours).  Each seed then builds its
//    own rows from the CSR through a per-thread global-id -> position
//    map, as seed 0 always does.
//  * Caps.  While |C| > 4096 (hub seeds), steps run on sorted lists with
//    intersect-size-gt-val keyed to the running maximum, counted as
//    gallop; that prefix is the only part the intersection policy (early
//    exits) affects.  The caps keep positions in uint16 and bound U's
//    rows at 2 MiB, and each participant's local rows at 2 MiB.
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

#include <cstdint>

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

/// What the degree-based search did; the same at every thread count.
struct DegreeHeuristicStats {
  /// |U|, the members whose rows seeds 1..K-1 share; 0 when U's rows
  /// were not built (over the cap, or not paying).
  std::uint64_t union_size = 0;
  /// Rows built by scanning a CSR row: seed 0's, U's, and each
  /// per-seed build over the cap.
  std::uint64_t csr_rows = 0;
  /// Seeds the walk in seed order regrew under a larger bound.
  std::uint64_t regrown = 0;
};

/// Algorithm 5.  Offers every grown clique to `incumbent` (original ids).
DegreeHeuristicStats degree_based_heuristic(
    const Graph& g, Incumbent& incumbent,
    const HeuristicOptions& options = {});

/// Algorithm 6.  Seeds one greedy growth per coreness level of `h` at or
/// above the incumbent's size; offers results to `incumbent` in original
/// ids.
void coreness_based_heuristic(LazyGraph& h, Incumbent& incumbent,
                              const HeuristicOptions& options = {});

}  // namespace lazymc::mc

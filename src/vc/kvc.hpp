// k-Vertex-Cover branch-and-bound solver (paper Section IV-E).
//
// Decides whether a dense subgraph has a vertex cover of size <= k and
// produces one when it exists.  Implements the established reduction
// toolkit the paper lists:
//  * Buss kernel: a vertex of degree > k must be in any k-cover;
//  * degree-0/1 kernelisation: isolated vertices are dropped, a
//    degree-1 vertex's neighbor joins the cover;
//  * the merge-free degree-2 rule: when a degree-2 vertex's neighbors are
//    adjacent (a triangle), both neighbors join the cover;
//  * the counting bound: each cover vertex covers at most max-degree
//    edges;
//  * the half-integral LP lower bound (Akiba & Iwata, TCS 2016): half the
//    size of a maximum matching of the bipartite double cover, warm-
//    started from a greedy maximal matching and grown by word-parallel
//    augmenting phases; a node is pruned once that matching exceeds 2k;
//  * a polynomial path/cycle solver once the maximum degree reaches 2;
//  * branching on the highest-degree vertex: v in the cover, or N(v) is.
//
// State is an "alive" bitset over the (immutable) subgraph adjacency,
// which makes undo-free branching cheap for the small, dense subproblems
// LazyMC generates.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/subgraph.hpp"
#include "support/control.hpp"

namespace lazymc::vc {

struct KvcResult {
  bool feasible = false;
  /// A vertex cover of size <= k in local ids (valid when feasible).
  std::vector<VertexId> cover;
  /// Branch nodes expanded (work metric).
  std::uint64_t nodes = 0;
  bool timed_out = false;
  /// True when max_nodes was hit; `feasible` is then meaningless.
  bool budget_exhausted = false;
};

struct KvcOptions {
  const SolveControl* control = nullptr;
  /// Branch-node cap (0 = unlimited); exceeded -> budget_exhausted.
  std::uint64_t max_nodes = 0;
};

/// Reusable state for solve_kvc: one branch bitset + degree array per
/// recursion depth plus the root/path-solver bitsets, the LP bound's
/// matching state and the working cover.  Keep one per thread; once
/// capacities reach the high-water mark, infeasible probes (the steady
/// state of MC-via-VC) allocate nothing.
///
/// Degrees are maintained *incrementally*: computed once at the root
/// (one count_and per vertex), copied O(n) into each branch's frame, and
/// decremented along adjacency rows as kernelisation/branching removes
/// vertices — the kernel rounds never recount a row.
struct KvcScratch {
  struct Frame {
    DynamicBitset branch;
    std::vector<VertexId> deg;  // alive-degree snapshot for this branch
  };
  /// One step of an augmenting-path search: a left copy, the word its
  /// row scan resumes at, and the right copy it last stepped to.
  struct PathStep {
    VertexId left = 0;
    std::size_t word = 0;
    VertexId right = 0;
  };
  std::vector<Frame> frames;
  DynamicBitset root;
  std::vector<VertexId> root_deg;
  // LP bound: each right copy's matched left copy, the unmatched left
  // copies, the phase's unvisited right copies, the augmenting path.
  std::vector<VertexId> match_right;
  DynamicBitset matching_free;
  DynamicBitset unvisited;
  std::vector<PathStep> path;
  DynamicBitset deg2;
  DynamicBitset alive_row;  // remove_vertex's row & alive intermediate
  std::vector<VertexId> cover;
};

/// Decides VC(g) <= k.
KvcResult solve_kvc(const DenseSubgraph& g, std::int64_t k,
                    const KvcOptions& options = {});

/// Scratch-arena variant: identical result, recycled intermediates.
KvcResult solve_kvc(const DenseSubgraph& g, std::int64_t k,
                    const KvcOptions& options, KvcScratch& scratch);

/// Exact minimum vertex cover size by binary search over k (test
/// convenience; the production path is mc_via_vc's probe-first search).
std::size_t minimum_vertex_cover(const DenseSubgraph& g,
                                 const KvcOptions& options = {});

}  // namespace lazymc::vc

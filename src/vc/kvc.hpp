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
// Each node applies the three reductions exhaustively before it bounds or
// branches, in one pass over a worklist: one scan of the alive vertices
// seeds it with those of degree <= 2 or > k (and refutes the node at the
// (k+1)-th of degree > k), and every removal pushes the neighbors whose
// degree falls to 2 or below.  The edge count is kept by subtraction as
// vertices go.  The maximum degree is read once the worklist is empty:
// from the seed scan if nothing was reduced, else from one more scan,
// which restarts the worklist if the smaller k lets the Buss rule fire.
//
// State is an "alive" bitset over the (immutable) subgraph adjacency,
// which makes undo-free branching cheap for the small, dense subproblems
// LazyMC generates.
#pragma once

#include <cstdint>
#include <span>
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
  /// LP-bound evaluations, and those that refuted their node.
  std::uint64_t lp_calls = 0;
  std::uint64_t lp_refuted = 0;
  /// Buss, degree-1 and triangle reductions applied.
  std::uint64_t reductions = 0;
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
/// recursion depth plus the root/path-solver bitsets, the kernel's
/// worklist, the LP bound's matching state and the working cover.  Keep
/// one per thread; once capacities reach the high-water mark, infeasible
/// probes (the steady state of MC-via-VC) allocate nothing.
///
/// Degrees are maintained *incrementally*: the root's are handed over by
/// the caller (mc_via_vc takes them from the popcounts of the complement
/// build), copied O(n) into each branch's frame, and decremented along
/// adjacency rows as kernelisation/branching removes vertices — no node
/// ever recounts a row.
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
  // Kernel worklist: vertices whose degree may admit a reduction.  It is
  // empty between nodes, so one serves every depth.
  std::vector<VertexId> worklist;
  std::vector<VertexId> cover;
};

/// Decides VC(g) <= k.
KvcResult solve_kvc(const DenseSubgraph& g, std::int64_t k,
                    const KvcOptions& options = {});

/// Scratch-arena variant: identical result, recycled intermediates.
/// `degrees[v]` must be the popcount of `g.adj[v]`, as
/// DenseSubgraph::complement_into reports it.
KvcResult solve_kvc(const DenseSubgraph& g, std::span<const VertexId> degrees,
                    std::int64_t k, const KvcOptions& options,
                    KvcScratch& scratch);

/// Exact minimum vertex cover size by binary search over k (test
/// convenience; the production path is mc_via_vc's probe-first search).
std::size_t minimum_vertex_cover(const DenseSubgraph& g,
                                 const KvcOptions& options = {});

}  // namespace lazymc::vc

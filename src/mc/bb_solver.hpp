// Branch-and-bound maximum clique search on a dense induced subgraph.
//
// Derived from Bron–Kerbosch with Tomita's pivoting/coloring discipline
// (paper Section IV-E): candidates are greedily colored at each node and
// expanded in reverse color order, pruning when |R| + color <= best.
// The solver reads an optional external incumbent size so concurrently
// discovered cliques shrink this search too.  Each solve runs on the
// calling thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/subgraph.hpp"
#include "mc/greedy_color.hpp"
#include "support/control.hpp"

namespace lazymc::mc {

/// Reusable search-state for solve_mc_dense: one frame per recursion
/// depth (coloring + candidate bitsets) plus the coloring buffers and the
/// clique-under-construction vectors.  Keep one instance per thread and
/// pass it to every call; once its capacities reach the high-water mark,
/// repeated solves perform no heap allocation (except to return an
/// improving clique, which is rare by construction).
struct MCScratch {
  struct Frame {
    Coloring coloring;
    DynamicBitset rest;
    DynamicBitset next;
  };
  std::vector<Frame> frames;
  ColorScratch color;
  DynamicBitset root;
  std::vector<VertexId> best;
  std::vector<VertexId> current;
};

struct BBResult {
  /// Largest clique found with size > lower_bound, in *local* subgraph
  /// ids; empty when none exceeds the bound.
  std::vector<VertexId> clique;
  /// Search-tree nodes expanded (work metric for Figs. 6/7).
  std::uint64_t nodes = 0;
  bool timed_out = false;
};

struct BBOptions {
  /// Only cliques strictly larger than this are of interest.
  VertexId lower_bound = 0;
  /// Optional live incumbent size; when set, it is re-read during the
  /// search and tightens the bound (monotone, relaxed reads).
  const std::atomic<VertexId>* live_bound = nullptr;
  /// Subtracted (saturating) from live_bound reads before use.  The
  /// systematic search solves neighborhoods *excluding* the probe vertex,
  /// so a global incumbent of size k bounds local cliques at k - 1.
  VertexId live_bound_offset = 0;
  /// Cooperative timeout; may be null.
  const SolveControl* control = nullptr;
};

/// Exact maximum clique of `g` subject to the options above.
BBResult solve_mc_dense(const DenseSubgraph& g, const BBOptions& options);

/// Scratch-arena variant: identical result, but all intermediate state
/// lives in (and is recycled through) `scratch`.
BBResult solve_mc_dense(const DenseSubgraph& g, const BBOptions& options,
                        MCScratch& scratch);

}  // namespace lazymc::mc

// Greedy sequential coloring of a candidate set, used as a clique upper
// bound: a k-clique needs k colors, so |C| + colors(G[P]) <= |C*| prunes
// the branch (paper Section II-A; Tomita & Seki 2003; Babel & Tinhofer).
#pragma once

#include <vector>

#include "graph/subgraph.hpp"
#include "support/bitset.hpp"

namespace lazymc::mc {

/// Result of coloring the candidate subset `p` of a dense subgraph.
struct Coloring {
  /// Candidates ordered by ascending color.
  std::vector<VertexId> order;
  /// color[i] = color (1-based) of order[i]; ascending.
  std::vector<VertexId> color;
  /// Number of color classes used (upper bound on the clique in G[P]).
  VertexId num_colors = 0;
};

/// Reusable buffers for the coloring routines.  Thread through repeated
/// calls (one instance per thread) so steady-state colorings allocate
/// nothing once capacities have grown to the high-water mark.
struct ColorScratch {
  DynamicBitset uncolored;
  DynamicBitset candidates;
};

/// Greedy coloring of the vertices in `p` (a bitset over g's local ids).
/// O(|p| * colors * words).  Deterministic given the iteration order.
Coloring greedy_color(const DenseSubgraph& g, const DynamicBitset& p);

/// Scratch-arena variant: writes into `out` (cleared first), reusing its
/// vectors and the scratch bitsets.
void greedy_color_into(const DenseSubgraph& g, const DynamicBitset& p,
                       ColorScratch& scratch, Coloring& out);

}  // namespace lazymc::mc

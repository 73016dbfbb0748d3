// k-core decomposition and degeneracy.
//
// Coreness is the backbone of LazyMC's work-avoidance: a vertex of coreness
// c can belong to at most a (c+1)-clique, so every coreness below the
// incumbent clique size removes a vertex from the zone of interest
// (paper Sections II-III).
//
// `coreness` is Matula–Beck bucket peeling, O(n + m), sequential; it also
// yields the peeling (degeneracy) order that `--order peeling` uses.
//
// Algorithm 1 computes KCore(G, lb), which first strips the vertices that
// cannot reach coreness lb.  This code always peels the whole graph: the
// pre-filter paid only on graphs where lb removes most vertices, and it
// left the degeneracy unknown whenever lb exceeded it.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace lazymc::kcore {

struct CoreDecomposition {
  /// coreness[v] for every v.
  std::vector<VertexId> coreness;
  /// Largest coreness (the degeneracy d(G)).
  VertexId degeneracy = 0;
  /// Peeling order: the peeled vertices in the order they were removed;
  /// right-neighborhoods w.r.t. this order have size <= coreness.
  std::vector<VertexId> peel_order;
};

/// Sequential Matula–Beck bucket peeling.  O(n + m).
CoreDecomposition coreness(const Graph& g);

/// Former KCore(G, lb) entry point; kept only because lmcbench/main.cpp
/// calls it.  The full decomposition is exact for every lb.
inline CoreDecomposition coreness_lower_bounded(const Graph& g, VertexId) {
  return coreness(g);
}

/// Upper bound on the maximum clique: degeneracy + 1.
inline VertexId clique_upper_bound(const CoreDecomposition& core) {
  return core.degeneracy + 1;
}

}  // namespace lazymc::kcore

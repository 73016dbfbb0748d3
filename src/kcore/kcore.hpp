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
// `coreness_lower_bounded` implements KCore(G, lb) from Algorithm 1: only
// vertices that could matter given an incumbent of size lb participate;
// the rest are reported with coreness 0 and never touched again.
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

/// KCore(G, lb): coreness restricted to vertices with degree >= lb.
/// Vertices below the bound get coreness 0 (they cannot belong to a clique
/// of size > lb, so their exact coreness is irrelevant).  For surviving
/// vertices the reported value equals their true coreness whenever that
/// coreness is >= lb, which is the only case the MC search inspects.
CoreDecomposition coreness_lower_bounded(const Graph& g, VertexId lb);

/// Upper bound on the maximum clique: degeneracy + 1.
inline VertexId clique_upper_bound(const CoreDecomposition& core) {
  return core.degeneracy + 1;
}

}  // namespace lazymc::kcore

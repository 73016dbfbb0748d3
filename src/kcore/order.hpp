// Vertex ordering (paper Section IV-F).
//
// All parallel-friendly MC algorithms need a degeneracy-flavoured order,
// and a parallel coreness computation yields no unique peeling order.
// LazyMC therefore sorts by (coreness asc, degree asc), realized with two
// stable counting sorts: first by degree, then by coreness.  The paper
// runs them as SAPCo-style parallel sorts; here they are sequential,
// because the parallel version was no faster at 4 threads.
// Right-neighborhoods under this order are small — bounded by coreness
// for the peeling order, and empirically close for the (coreness, degree)
// order.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "kcore/kcore.hpp"

namespace lazymc::kcore {

/// A bijective relabelling of the vertex set.
struct VertexOrder {
  /// new id -> original id.  new ids are "positions"; higher = later.
  std::vector<VertexId> new_to_orig;
  /// original id -> new id.
  std::vector<VertexId> orig_to_new;

  VertexId size() const { return static_cast<VertexId>(new_to_orig.size()); }
};

/// Sorts vertices by (coreness asc, degree asc); both keys via stable
/// sequential counting sorts, so the result is deterministic.
VertexOrder order_by_coreness_degree(const Graph& g,
                                     const std::vector<VertexId>& coreness);

/// Former name of `order_by_coreness_degree`; kept only because
/// lmcbench/main.cpp calls it.
inline VertexOrder order_by_coreness_degree_parallel(
    const Graph& g, const std::vector<VertexId>& coreness) {
  return order_by_coreness_degree(g, coreness);
}

/// Order given directly by a peeling sequence (vertex peeled first gets
/// new id 0).  `peel_order` must list every vertex of `g` once, as
/// kcore::coreness's does (checked-mode assertion).
VertexOrder order_from_peel(const Graph& g,
                            const std::vector<VertexId>& peel_order);

/// Materializes the relabelled graph: vertex v of the result corresponds
/// to order.new_to_orig[v]; neighbor lists sorted ascending in new ids.
/// This is the *eager* construction the PMC baseline performs up front and
/// LazyMC avoids (Section III-B).
Graph relabel(const Graph& g, const VertexOrder& order);

/// Right-neighborhood size bound check helper: max over v of
/// |{u in N(v) : order(u) > order(v)}|.
VertexId max_right_neighborhood(const Graph& g, const VertexOrder& order);

}  // namespace lazymc::kcore

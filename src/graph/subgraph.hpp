// Induced-subgraph extraction.
//
// The branch-and-bound solvers (mc::BBSolver, vc::KvcSolver) operate on
// small, dense candidate sets (bounded by coreness), for which a local
// bitset adjacency matrix is by far the fastest representation: every
// candidate-set intersection becomes a word-parallel AND (cf. the paper's
// Section VI discussion of bit-level parallelism).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "support/bitset.hpp"

namespace lazymc {

/// A dense induced subgraph with local vertex ids 0..size()-1.
struct DenseSubgraph {
  /// local id -> original vertex id.
  std::vector<VertexId> vertices;
  /// adj[i] has bit j set iff local vertices i and j are adjacent.
  std::vector<DynamicBitset> adj;
  /// Number of undirected edges in the subgraph.
  EdgeId num_edges = 0;

  std::size_t size() const { return vertices.size(); }

  /// Edge density in [0, 1]; 0 for fewer than 2 vertices.
  double density() const {
    std::size_t n = size();
    if (n < 2) return 0.0;
    return 2.0 * static_cast<double>(num_edges) /
           (static_cast<double>(n) * static_cast<double>(n - 1));
  }

  /// Complement adjacency (self-loops excluded), same vertex order.
  DenseSubgraph complement() const;

  /// Complement into `out`, reusing out's row storage (scratch-arena
  /// path: no allocation once out's capacity covers this size).  `out`
  /// must not alias `this`.  `degrees`, when given, receives each
  /// complement row's popcount (the build counts them anyway).
  void complement_into(DenseSubgraph& out,
                       std::vector<VertexId>* degrees = nullptr) const;

  /// Resets to n vertices with empty rows, reusing existing storage.
  /// `adj` may retain more than n rows; only rows [0, n) are meaningful.
  void reset_pooled(std::size_t n) {
    vertices.clear();
    if (adj.size() < n) adj.resize(n);
    for (std::size_t i = 0; i < n; ++i) adj[i].reinit(n);
    num_edges = 0;
  }
};

/// Extracts G[verts].  `verts` must contain distinct vertex ids; local ids
/// follow the order of `verts`.  O(sum deg(v)) using a scatter index.
DenseSubgraph induce_dense(const Graph& g, std::span<const VertexId> verts);

/// Extracts G[verts] as a CSR graph.  If `local_to_orig` is non-null it
/// receives the local->original id map (same order as verts).
Graph induce_csr(const Graph& g, std::span<const VertexId> verts,
                 std::vector<VertexId>* local_to_orig = nullptr);

}  // namespace lazymc

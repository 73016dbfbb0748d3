// Builds a Graph from an arbitrary edge list: symmetrizes, removes
// self-loops and duplicates, sorts neighbor lists.
//
// Every Graph the library makes from edges — the text readers, the
// generators, induced subgraphs — goes through one parallel CSR build
// (build_csr) on the global pool.  Its output does not depend on the
// participant count, so `--threads 1` and `--threads 4` load the same
// bytes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "support/parallel.hpp"

namespace lazymc {

using Edge = std::pair<VertexId, VertexId>;

/// Builds the CSR graph on `n` vertices from undirected edges given as
/// consecutive parts; every id must be below `n`.  Load participant p
/// counts and scatters part p, so a caller that already holds one edge
/// buffer per participant (the text readers) hands them over as they
/// are.  Self-loops and duplicates are dropped and rows are sorted, so
/// the result does not depend on how the edges are split.
Graph build_csr(VertexId n, std::span<const std::span<const Edge>> parts);

/// Participants for a load of `units` work items, at least `min_units`
/// each: the pool's size, fewer for a small load, and 1 inside a pool
/// worker (where a launch would run inline anyway).
std::size_t load_participants(std::size_t units, std::size_t min_units);

/// Runs `fn(p)` for every p in [0, parts): inline for one part, else as
/// one pool launch that never queues behind another launcher
/// (Launch::kInlineIfBusy), so a load on a daemon connection thread does
/// not wait for another request's search.
template <typename Fn>
void for_each_part(std::size_t parts, Fn&& fn) {
  if (parts <= 1) {
    if (parts == 1) fn(std::size_t{0});
    return;
  }
  thread_pool().parallel_invoke_all(
      [&](std::size_t p) {
        if (p < parts) fn(p);
      },
      Launch::kInlineIfBusy);
}

class GraphBuilder {
 public:
  /// Pre-declares the number of vertices.  Vertices mentioned in edges may
  /// exceed this; the final count is max(declared, max id + 1).
  explicit GraphBuilder(VertexId num_vertices = 0) : n_(num_vertices) {}

  /// Adds an undirected edge.  Self-loops and duplicates are tolerated and
  /// removed at build time.
  void add_edge(VertexId u, VertexId v) {
    n_ = std::max({n_, u + 1, v + 1});
    edges_.emplace_back(u, v);
  }

  /// Guarantees the built graph has at least `n` vertices, without adding
  /// any edge.  Lets format readers honor a declared vertex count whose
  /// top vertices are isolated (e.g. a DIMACS "p edge n m" header).
  void ensure_vertices(VertexId n) { n_ = std::max(n_, n); }

  /// Vertex count the graph would have if built now.
  VertexId num_vertices() const { return n_; }

  std::size_t num_pending_edges() const { return edges_.size(); }

  /// Builds the CSR graph (build_csr over the edges split evenly among
  /// the load participants).  The builder may be reused afterwards (it
  /// keeps its edges).
  Graph build() const;

 private:
  VertexId n_;
  std::vector<Edge> edges_;
};

/// Convenience: builds a graph directly from an edge list.
Graph graph_from_edges(VertexId num_vertices, const std::vector<Edge>& edges);

}  // namespace lazymc

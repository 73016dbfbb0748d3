#include "graph/subgraph.hpp"

#include <algorithm>
#include <unordered_map>

#include "graph/builder.hpp"
#include "support/wordops.hpp"

namespace lazymc {

DenseSubgraph DenseSubgraph::complement() const {
  DenseSubgraph c;
  complement_into(c);
  return c;
}

void DenseSubgraph::complement_into(DenseSubgraph& out) const {
  const std::size_t n = size();
  out.reset_pooled(n);
  out.vertices.assign(vertices.begin(), vertices.end());
  // Word-wise NOT of each row, masking the diagonal and the tail bits
  // beyond n; the edge count falls out of popcounts (degree sum / 2).
  std::size_t degree_sum = 0;
  const std::size_t words = (n + 63) / 64;
  for (std::size_t i = 0; i < n; ++i) {
    DynamicBitset& row = out.adj[i];
    wordops::not_into(row.data(), adj[i].data(), words);
    row.reset(i);
    if (n % 64 != 0) {
      row.word(words - 1) &= (~0ULL) >> (64 - n % 64);
    }
    degree_sum += row.count();
  }
  out.num_edges = static_cast<EdgeId>(degree_sum / 2);
}

DenseSubgraph induce_dense(const Graph& g, std::span<const VertexId> verts) {
  DenseSubgraph s;
  s.vertices.assign(verts.begin(), verts.end());
  std::size_t n = verts.size();
  s.adj.assign(n, DynamicBitset(n));

  // original id -> local id map.  A hash map keeps extraction O(|verts| +
  // sum deg) without touching an O(|V|) scatter array, which matters when
  // many small subgraphs are extracted in parallel.
  std::unordered_map<VertexId, std::size_t> local;
  local.reserve(n * 2);
  for (std::size_t i = 0; i < n; ++i) local.emplace(verts[i], i);

  EdgeId m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (VertexId u : g.neighbors(verts[i])) {
      auto it = local.find(u);
      if (it == local.end()) continue;
      std::size_t j = it->second;
      if (j == i) continue;
      s.adj[i].set(j);
      if (i < j) ++m;
    }
  }
  s.num_edges = m;
  return s;
}

Graph induce_csr(const Graph& g, std::span<const VertexId> verts,
                 std::vector<VertexId>* local_to_orig) {
  std::unordered_map<VertexId, VertexId> local;
  local.reserve(verts.size() * 2);
  for (std::size_t i = 0; i < verts.size(); ++i) {
    local.emplace(verts[i], static_cast<VertexId>(i));
  }
  GraphBuilder b(static_cast<VertexId>(verts.size()));
  for (std::size_t i = 0; i < verts.size(); ++i) {
    for (VertexId u : g.neighbors(verts[i])) {
      auto it = local.find(u);
      if (it == local.end()) continue;
      if (it->second > i) b.add_edge(static_cast<VertexId>(i), it->second);
    }
  }
  if (local_to_orig) local_to_orig->assign(verts.begin(), verts.end());
  return b.build();
}

}  // namespace lazymc

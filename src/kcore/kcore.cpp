#include "kcore/kcore.hpp"

#include <algorithm>

namespace lazymc::kcore {

CoreDecomposition coreness(const Graph& g) {
  const VertexId n = g.num_vertices();
  CoreDecomposition out;
  out.coreness.assign(n, 0);
  if (n == 0) return out;

  std::vector<VertexId> deg(n);
  VertexId max_deg = 0;
  for (VertexId v = 0; v < n; ++v) {
    deg[v] = g.degree(v);
    max_deg = std::max(max_deg, deg[v]);
  }

  // Bucket sort vertices by degree (classic O(n+m) peeling layout).
  std::vector<VertexId> bucket_start(static_cast<std::size_t>(max_deg) + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++bucket_start[deg[v] + 1];
  for (std::size_t i = 1; i < bucket_start.size(); ++i) {
    bucket_start[i] += bucket_start[i - 1];
  }
  std::vector<VertexId> order(n);
  std::vector<VertexId> pos(n);
  {
    std::vector<VertexId> cursor(bucket_start.begin(), bucket_start.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      pos[v] = cursor[deg[v]];
      order[cursor[deg[v]]++] = v;
    }
  }

  VertexId degeneracy = 0;
  out.peel_order.reserve(n);
  for (VertexId i = 0; i < n; ++i) {
    VertexId v = order[i];
    degeneracy = std::max(degeneracy, deg[v]);
    out.coreness[v] = degeneracy;
    out.peel_order.push_back(v);
    for (VertexId u : g.neighbors(v)) {
      // Already at/below the current level.  This also skips every peeled
      // neighbor: the peel visits degrees in non-decreasing order and
      // never lowers one below the visiting vertex's, so a peeled u keeps
      // a degree no larger than deg[v].
      if (deg[u] <= deg[v]) continue;
      // Swap u to the front of its bucket, then shrink its degree.
      VertexId du = deg[u];
      VertexId pu = pos[u];
      VertexId bucket_front = bucket_start[du];
      VertexId w = order[bucket_front];
      if (w != u) {
        order[pu] = w;
        order[bucket_front] = u;
        pos[w] = pu;
        pos[u] = bucket_front;
      }
      ++bucket_start[du];
      --deg[u];
    }
  }
  out.degeneracy = degeneracy;
  return out;
}

}  // namespace lazymc::kcore

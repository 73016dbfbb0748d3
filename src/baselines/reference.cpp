#include "baselines/reference.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/subgraph.hpp"
#include "mc/bb_solver.hpp"

namespace lazymc::baselines {

std::vector<VertexId> max_clique_reference(const Graph& g,
                                           const SolveControl* control,
                                           bool* timed_out) {
  if (timed_out) *timed_out = false;
  const VertexId n = g.num_vertices();
  if (n == 0) return {};
  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  DenseSubgraph sub = induce_dense(g, all);
  mc::BBOptions opt;  // lower_bound 0: always finds the maximum
  opt.control = control;
  mc::BBResult r = mc::solve_mc_dense(sub, opt);
  if (timed_out) *timed_out = r.timed_out;
  std::vector<VertexId> out;
  out.reserve(r.clique.size());
  for (VertexId local : r.clique) out.push_back(sub.vertices[local]);
  std::sort(out.begin(), out.end());
  if (out.empty() && n > 0) out.push_back(0);  // single vertex is a 1-clique
  return out;
}

std::vector<VertexId> max_clique_naive(const Graph& g) {
  const VertexId n = g.num_vertices();
  if (n > 24) throw std::invalid_argument("max_clique_naive: n > 24");
  if (n == 0) return {};
  std::uint32_t best_mask = 0;
  int best_count = 0;
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    int count = __builtin_popcount(mask);
    if (count <= best_count) continue;
    bool clique = true;
    for (VertexId u = 0; u < n && clique; ++u) {
      if (!(mask & (1u << u))) continue;
      for (VertexId v = u + 1; v < n && clique; ++v) {
        if (!(mask & (1u << v))) continue;
        if (!g.has_edge(u, v)) clique = false;
      }
    }
    if (clique) {
      best_mask = mask;
      best_count = count;
    }
  }
  std::vector<VertexId> out;
  for (VertexId v = 0; v < n; ++v) {
    if (best_mask & (1u << v)) out.push_back(v);
  }
  return out;
}

}  // namespace lazymc::baselines

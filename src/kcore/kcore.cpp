#include "kcore/kcore.hpp"

#include <algorithm>

namespace lazymc::kcore {
namespace {

/// Bucket peeling restricted to the vertices with active[v] true.
/// Vertices outside get coreness 0.
CoreDecomposition peel(const Graph& g, const std::vector<char>* active) {
  const VertexId n = g.num_vertices();
  CoreDecomposition out;
  out.coreness.assign(n, 0);
  if (n == 0) return out;

  // Induced degrees.
  std::vector<VertexId> deg(n, 0);
  VertexId max_deg = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (active && !(*active)[v]) continue;
    VertexId d = 0;
    if (active) {
      for (VertexId u : g.neighbors(v)) d += (*active)[u] ? 1 : 0;
    } else {
      d = g.degree(v);
    }
    deg[v] = d;
    max_deg = std::max(max_deg, d);
  }

  // Bucket sort vertices by degree (classic O(n+m) peeling layout).
  std::vector<VertexId> bucket_start(static_cast<std::size_t>(max_deg) + 2, 0);
  std::size_t num_active = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (active && !(*active)[v]) continue;
    ++bucket_start[deg[v] + 1];
    ++num_active;
  }
  for (std::size_t i = 1; i < bucket_start.size(); ++i) {
    bucket_start[i] += bucket_start[i - 1];
  }
  std::vector<VertexId> order(num_active);
  std::vector<VertexId> pos(n);
  {
    std::vector<VertexId> cursor(bucket_start.begin(), bucket_start.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      if (active && !(*active)[v]) continue;
      pos[v] = cursor[deg[v]];
      order[cursor[deg[v]]++] = v;
    }
  }

  std::vector<char> removed(n, 0);
  VertexId degeneracy = 0;
  out.peel_order.reserve(num_active);
  for (std::size_t i = 0; i < num_active; ++i) {
    VertexId v = order[i];
    degeneracy = std::max(degeneracy, deg[v]);
    out.coreness[v] = degeneracy;
    out.peel_order.push_back(v);
    removed[v] = 1;
    for (VertexId u : g.neighbors(v)) {
      if (removed[u]) continue;
      if (active && !(*active)[u]) continue;
      if (deg[u] <= deg[v]) continue;  // already at/below the current level
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

}  // namespace

CoreDecomposition coreness(const Graph& g) { return peel(g, nullptr); }

CoreDecomposition coreness_lower_bounded(const Graph& g, VertexId lb) {
  if (lb == 0) return peel(g, nullptr);
  const VertexId n = g.num_vertices();
  std::vector<char> active(n, 0);
  // Iteratively discard vertices whose degree among active vertices drops
  // below lb; this is exactly computing the lb-core as a pre-filter.
  std::vector<VertexId> deg(n, 0);
  std::vector<VertexId> stack;
  // Snapshot the degree-based filter first; degrees are then computed
  // against this snapshot and every later removal propagates exactly once
  // through the stack (computing against the live set would double-count).
  for (VertexId v = 0; v < n; ++v) {
    deg[v] = g.degree(v);
    active[v] = deg[v] >= lb ? 1 : 0;
  }
  for (VertexId v = 0; v < n; ++v) {
    if (!active[v]) continue;
    VertexId d = 0;
    for (VertexId u : g.neighbors(v)) {
      d += (g.degree(u) >= lb) ? 1 : 0;  // initial snapshot membership
    }
    deg[v] = d;
  }
  for (VertexId v = 0; v < n; ++v) {
    if (active[v] && deg[v] < lb) {
      active[v] = 0;
      stack.push_back(v);
    }
  }
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    for (VertexId u : g.neighbors(v)) {
      if (!active[u]) continue;
      if (--deg[u] < lb) {
        active[u] = 0;
        stack.push_back(u);
      }
    }
  }
  CoreDecomposition out = peel(g, &active);
  // Report coreness relative to the full graph: surviving vertices have
  // true coreness >= lb, and peeling the lb-core yields those exact values.
  return out;
}

}  // namespace lazymc::kcore

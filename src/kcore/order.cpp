#include "kcore/order.hpp"

#include <algorithm>
#include <stdexcept>

namespace lazymc::kcore {
namespace {

/// Stable counting sort of `items` by key(item); keys in [0, num_keys).
std::vector<VertexId> counting_sort(const std::vector<VertexId>& items,
                                    std::size_t num_keys,
                                    const std::vector<VertexId>& key) {
  std::vector<std::size_t> count(num_keys + 1, 0);
  for (VertexId v : items) ++count[key[v] + 1];
  for (std::size_t i = 1; i < count.size(); ++i) count[i] += count[i - 1];
  std::vector<VertexId> out(items.size());
  for (VertexId v : items) out[count[key[v]]++] = v;
  return out;
}

VertexOrder finish_order(std::vector<VertexId> items) {
  VertexOrder order;
  order.new_to_orig = std::move(items);
  order.orig_to_new.assign(order.new_to_orig.size(), 0);
  for (VertexId i = 0; i < order.new_to_orig.size(); ++i) {
    order.orig_to_new[order.new_to_orig[i]] = i;
  }
  return order;
}

}  // namespace

VertexOrder order_by_coreness_degree(const Graph& g,
                                     const std::vector<VertexId>& coreness) {
  const VertexId n = g.num_vertices();
  if (coreness.size() != n) {
    throw std::invalid_argument("order_by_coreness_degree: size mismatch");
  }
  std::vector<VertexId> items(n);
  std::vector<VertexId> degree(n);
  for (VertexId v = 0; v < n; ++v) {
    items[v] = v;
    degree[v] = g.degree(v);
  }
  VertexId max_deg = 0, max_core = 0;
  for (VertexId v = 0; v < n; ++v) {
    max_deg = std::max(max_deg, degree[v]);
    max_core = std::max(max_core, coreness[v]);
  }
  // Secondary key first (stable sorts compose right-to-left).
  items = counting_sort(items, max_deg + 1, degree);
  items = counting_sort(items, max_core + 1, coreness);
  return finish_order(std::move(items));
}

VertexOrder order_from_peel(const Graph& g,
                            const std::vector<VertexId>& peel_order) {
  const VertexId n = g.num_vertices();
  VertexOrder order;
  order.new_to_orig.reserve(n);
  std::vector<char> seen(n, 0);
  for (VertexId v : peel_order) {
    order.new_to_orig.push_back(v);
    seen[v] = 1;
  }
  for (VertexId v = 0; v < n; ++v) {
    if (!seen[v]) order.new_to_orig.push_back(v);
  }
  order.orig_to_new.assign(n, 0);
  for (VertexId i = 0; i < n; ++i) order.orig_to_new[order.new_to_orig[i]] = i;
  return order;
}

Graph relabel(const Graph& g, const VertexOrder& order) {
  const VertexId n = g.num_vertices();
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId new_v = 0; new_v < n; ++new_v) {
    offsets[new_v + 1] =
        offsets[new_v] + g.degree(order.new_to_orig[new_v]);
  }
  std::vector<VertexId> adjacency(offsets[n]);
  for (VertexId new_v = 0; new_v < n; ++new_v) {
    VertexId orig = order.new_to_orig[new_v];
    EdgeId out = offsets[new_v];
    for (VertexId u : g.neighbors(orig)) {
      adjacency[out++] = order.orig_to_new[u];
    }
    std::sort(adjacency.begin() + offsets[new_v],
              adjacency.begin() + offsets[new_v + 1]);
  }
  return Graph(std::move(offsets), std::move(adjacency));
}

VertexId max_right_neighborhood(const Graph& g, const VertexOrder& order) {
  VertexId best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    VertexId count = 0;
    VertexId pos = order.orig_to_new[v];
    for (VertexId u : g.neighbors(v)) {
      if (order.orig_to_new[u] > pos) ++count;
    }
    best = std::max(best, count);
  }
  return best;
}

}  // namespace lazymc::kcore

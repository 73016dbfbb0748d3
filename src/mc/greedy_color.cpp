#include "mc/greedy_color.hpp"

namespace lazymc::mc {

void greedy_color_into(const DenseSubgraph& g, const DynamicBitset& p,
                       ColorScratch& scratch, Coloring& out) {
  out.order.clear();
  out.color.clear();
  DynamicBitset& uncolored = scratch.uncolored;
  DynamicBitset& candidates = scratch.candidates;
  uncolored = p;
  VertexId color = 0;
  std::size_t total = p.count();
  out.order.reserve(total);
  out.color.reserve(total);
  while (uncolored.any()) {
    ++color;
    // Build one independent set greedily: take the lowest uncolored vertex,
    // remove its neighbors from the class candidates, repeat.
    candidates = uncolored;
    for (std::size_t v = candidates.find_first(); v < candidates.size();
         v = candidates.find_next(v)) {
      out.order.push_back(static_cast<VertexId>(v));
      out.color.push_back(color);
      uncolored.reset(v);
      candidates.and_not_with(g.adj[v]);
    }
  }
  out.num_colors = color;
}

Coloring greedy_color(const DenseSubgraph& g, const DynamicBitset& p) {
  ColorScratch scratch;
  Coloring out;
  greedy_color_into(g, p, scratch, out);
  return out;
}

}  // namespace lazymc::mc

// Tests for the greedy coloring clique upper bound.
#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "mc/greedy_color.hpp"

namespace lazymc {
namespace {

DenseSubgraph induce_all(const Graph& g) {
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  return induce_dense(g, all);
}

DynamicBitset full_set(std::size_t n) {
  DynamicBitset p(n);
  for (std::size_t i = 0; i < n; ++i) p.set(i);
  return p;
}

TEST(GreedyColor, EmptySetZeroColors) {
  DenseSubgraph s = induce_all(gen::complete(4));
  DynamicBitset p(4);
  auto c = mc::greedy_color(s, p);
  EXPECT_EQ(c.num_colors, 0u);
  EXPECT_TRUE(c.order.empty());
}

TEST(GreedyColor, CompleteGraphNeedsNColors) {
  for (VertexId n : {2u, 5u, 9u}) {
    DenseSubgraph s = induce_all(gen::complete(n));
    auto c = mc::greedy_color(s, full_set(n));
    EXPECT_EQ(c.num_colors, n);
    EXPECT_EQ(c.order.size(), n);
  }
}

TEST(GreedyColor, IndependentSetOneColor) {
  GraphBuilder b(6);  // no edges at all
  Graph empty = b.build();
  DenseSubgraph s = induce_all(empty);
  auto c = mc::greedy_color(s, full_set(6));
  EXPECT_EQ(c.num_colors, 1u);
}

TEST(GreedyColor, ColorsAscendInOrder) {
  DenseSubgraph s = induce_all(gen::gnp(30, 0.4, 3));
  auto c = mc::greedy_color(s, full_set(30));
  for (std::size_t i = 1; i < c.color.size(); ++i) {
    EXPECT_LE(c.color[i - 1], c.color[i]);
  }
}

TEST(GreedyColor, ProperColoring) {
  DenseSubgraph s = induce_all(gen::gnp(40, 0.3, 5));
  auto c = mc::greedy_color(s, full_set(40));
  // Reconstruct per-vertex colors and verify no edge is monochromatic.
  std::vector<VertexId> color_of(40, 0);
  for (std::size_t i = 0; i < c.order.size(); ++i) {
    color_of[c.order[i]] = c.color[i];
  }
  for (std::size_t v = 0; v < 40; ++v) {
    for (std::size_t u = v + 1; u < 40; ++u) {
      if (s.adj[v].test(u)) {
        EXPECT_NE(color_of[v], color_of[u]);
      }
    }
  }
}

TEST(GreedyColor, BoundsCliqueFromAbove) {
  // num_colors >= omega on any graph.
  Graph g = gen::plant_clique(gen::gnp(30, 0.2, 7), 6, 8);
  DenseSubgraph s = induce_all(g);
  auto c = mc::greedy_color(s, full_set(30));
  EXPECT_GE(c.num_colors, 6u);
}

TEST(GreedyColor, SubsetColoring) {
  DenseSubgraph s = induce_all(gen::complete(8));
  DynamicBitset p(8);
  p.set(1);
  p.set(3);
  p.set(5);
  auto c = mc::greedy_color(s, p);
  EXPECT_EQ(c.num_colors, 3u);  // K8 restricted to 3 vertices is K3
  EXPECT_EQ(c.order.size(), 3u);
}

TEST(GreedyColor, BipartiteUsesTwoColors) {
  Graph g = gen::bipartite(10, 10, 1.0, 1);  // complete bipartite
  DenseSubgraph s = induce_all(g);
  auto c = mc::greedy_color(s, full_set(20));
  EXPECT_EQ(c.num_colors, 2u);
}

}  // namespace
}  // namespace lazymc

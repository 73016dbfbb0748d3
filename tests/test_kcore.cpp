// Tests for k-core decomposition.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "kcore/kcore.hpp"

namespace lazymc {
namespace {

using kcore::CoreDecomposition;

/// Independent O(n^2 m) reference: repeatedly strip vertices of degree < k.
std::vector<VertexId> coreness_reference(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> core(n, 0);
  std::vector<char> alive(n, 1);
  for (VertexId k = 0;; ++k) {
    // Repeatedly remove alive vertices with alive-degree < k+1; all
    // removed at level k have coreness k.
    bool any_alive = false;
    bool changed = true;
    while (changed) {
      changed = false;
      for (VertexId v = 0; v < n; ++v) {
        if (!alive[v]) continue;
        VertexId d = 0;
        for (VertexId u : g.neighbors(v)) d += alive[u];
        if (d < k + 1) {
          core[v] = k;
          alive[v] = 0;
          changed = true;
        }
      }
    }
    for (VertexId v = 0; v < n; ++v) any_alive |= alive[v];
    if (!any_alive) break;
  }
  return core;
}

TEST(KCore, EmptyGraph) {
  Graph g;
  auto core = kcore::coreness(g);
  EXPECT_EQ(core.degeneracy, 0u);
  EXPECT_TRUE(core.coreness.empty());
}

TEST(KCore, PathHasCorenessOne) {
  auto core = kcore::coreness(gen::path(10));
  EXPECT_EQ(core.degeneracy, 1u);
  for (VertexId c : core.coreness) EXPECT_EQ(c, 1u);
}

TEST(KCore, CycleHasCorenessTwo) {
  auto core = kcore::coreness(gen::cycle(8));
  EXPECT_EQ(core.degeneracy, 2u);
  for (VertexId c : core.coreness) EXPECT_EQ(c, 2u);
}

TEST(KCore, CompleteGraphCoreness) {
  auto core = kcore::coreness(gen::complete(7));
  EXPECT_EQ(core.degeneracy, 6u);
  for (VertexId c : core.coreness) EXPECT_EQ(c, 6u);
}

TEST(KCore, StarCorenessOne) {
  auto core = kcore::coreness(gen::star(9));
  EXPECT_EQ(core.degeneracy, 1u);
  EXPECT_EQ(core.coreness[0], 1u);
}

TEST(KCore, MixedStructure) {
  // K4 {0..3} + tail 3-4-5.
  Graph g = graph_from_edges(
      6, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}});
  auto core = kcore::coreness(g);
  EXPECT_EQ(core.degeneracy, 3u);
  EXPECT_EQ(core.coreness[0], 3u);
  EXPECT_EQ(core.coreness[3], 3u);
  EXPECT_EQ(core.coreness[4], 1u);
  EXPECT_EQ(core.coreness[5], 1u);
}

TEST(KCore, MatchesReferenceOnRandomGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Graph g = gen::gnp(80, 0.08, seed);
    auto fast = kcore::coreness(g);
    auto ref = coreness_reference(g);
    EXPECT_EQ(fast.coreness, ref) << "seed " << seed;
  }
}

TEST(KCore, PeelOrderIsPermutationWithBoundedRightNeighborhoods) {
  Graph g = gen::gnp(100, 0.1, 11);
  auto core = kcore::coreness(g);
  ASSERT_EQ(core.peel_order.size(), g.num_vertices());
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<VertexId> pos(g.num_vertices());
  for (VertexId i = 0; i < core.peel_order.size(); ++i) {
    VertexId v = core.peel_order[i];
    EXPECT_FALSE(seen[v]);
    seen[v] = 1;
    pos[v] = i;
  }
  // Peeling-order guarantee: right-neighborhood size <= coreness.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    VertexId right = 0;
    for (VertexId u : g.neighbors(v)) right += pos[u] > pos[v] ? 1 : 0;
    EXPECT_LE(right, core.coreness[v]) << "vertex " << v;
  }
}

TEST(KCore, DegeneracyUpperBoundsClique) {
  // omega <= degeneracy + 1 on a graph with a known planted clique.
  Graph g = gen::plant_clique(gen::gnp(100, 0.03, 19), 8, 20);
  auto core = kcore::coreness(g);
  EXPECT_GE(kcore::clique_upper_bound(core), 8u);
}

}  // namespace
}  // namespace lazymc

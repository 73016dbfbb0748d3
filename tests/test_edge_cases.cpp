// Edge-case tests across modules: degenerate inputs, unusual structures,
// and representation boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "baselines/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/subgraph.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/lazymc.hpp"
#include "vc/kvc.hpp"
#include "vc/mc_via_vc.hpp"

namespace lazymc {
namespace {

DenseSubgraph induce_all(const Graph& g) {
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  return induce_dense(g, all);
}

// ---- graphs with exotic degree structure -----------------------------------

TEST(EdgeCases, TwoDisjointCliques) {
  // The solver must not merge components.
  GraphBuilder b(12);
  for (VertexId i = 0; i < 6; ++i) {
    for (VertexId j = i + 1; j < 6; ++j) {
      b.add_edge(i, j);          // K6 on 0..5
      b.add_edge(i + 6, j + 6);  // K6 on 6..11
    }
  }
  Graph g = b.build();
  auto r = mc::lazy_mc(g);
  EXPECT_EQ(r.omega, 6u);
  // The clique lies entirely in one component.
  bool low = r.clique.front() < 6;
  for (VertexId v : r.clique) EXPECT_EQ(v < 6, low);
}

TEST(EdgeCases, CliqueMinusOneEdge) {
  // K8 minus one edge: omega = 7.
  GraphBuilder b(8);
  for (VertexId i = 0; i < 8; ++i) {
    for (VertexId j = i + 1; j < 8; ++j) {
      if (!(i == 0 && j == 1)) b.add_edge(i, j);
    }
  }
  auto r = mc::lazy_mc(b.build());
  EXPECT_EQ(r.omega, 7u);
}

TEST(EdgeCases, TuranGraphT33) {
  // Complete tripartite K(3,3,3): omega = 3 (one vertex per part).
  GraphBuilder b(9);
  for (VertexId i = 0; i < 9; ++i) {
    for (VertexId j = i + 1; j < 9; ++j) {
      if (i / 3 != j / 3) b.add_edge(i, j);
    }
  }
  Graph g = b.build();
  auto r = mc::lazy_mc(g);
  EXPECT_EQ(r.omega, 3u);
  // Dense (d = 6) with omega 3: a clique-core-gap-4 stress case.
  auto core = kcore::coreness(g);
  EXPECT_EQ(core.degeneracy, 6u);
}

TEST(EdgeCases, OverlappingCliquesShareVertices) {
  // Two K7s sharing 3 vertices: omega = 7, and the shared vertices have
  // the highest degree — heuristic seeds land there.
  GraphBuilder b(11);
  auto add_clique = [&](std::vector<VertexId> vs) {
    for (std::size_t i = 0; i < vs.size(); ++i) {
      for (std::size_t j = i + 1; j < vs.size(); ++j) {
        b.add_edge(vs[i], vs[j]);
      }
    }
  };
  add_clique({0, 1, 2, 3, 4, 5, 6});
  add_clique({4, 5, 6, 7, 8, 9, 10});
  auto r = mc::lazy_mc(b.build());
  EXPECT_EQ(r.omega, 7u);
}

TEST(EdgeCases, LongPathGraph) {
  auto r = mc::lazy_mc(gen::path(5000));
  EXPECT_EQ(r.omega, 2u);
}

TEST(EdgeCases, SelfContainedStarForest) {
  // Many stars: omega = 2, degeneracy 1, instant certification.
  GraphBuilder b(0);
  VertexId base = 0;
  for (int s = 0; s < 50; ++s) {
    for (VertexId leaf = 1; leaf <= 5; ++leaf) {
      b.add_edge(base, base + leaf);
    }
    base += 6;
  }
  auto r = mc::lazy_mc(b.build());
  EXPECT_EQ(r.omega, 2u);
  EXPECT_EQ(r.search.evaluated, 0u);  // heuristic certifies zero gap
}

// ---- k-VC structural cases --------------------------------------------------

TEST(EdgeCases, KvcDisjointPathsAndCycles) {
  // P5 (needs 2) + C6 (needs 3) + C5 (needs 3) + isolated vertices.
  GraphBuilder b(20);
  for (VertexId i = 0; i + 1 < 5; ++i) b.add_edge(i, i + 1);     // P5: 0..4
  for (VertexId i = 0; i < 6; ++i) b.add_edge(5 + i, 5 + (i + 1) % 6);
  for (VertexId i = 0; i < 5; ++i) b.add_edge(11 + i, 11 + (i + 1) % 5);
  DenseSubgraph s = induce_all(b.build());
  EXPECT_EQ(vc::minimum_vertex_cover(s), 2u + 3u + 3u);
  auto r = vc::solve_kvc(s, 8);
  EXPECT_TRUE(r.feasible);
  EXPECT_FALSE(vc::solve_kvc(s, 7).feasible);
}

TEST(EdgeCases, KvcDegreeTwoChainOfTriangles) {
  // Triangles sharing no vertices, connected by bridges: the triangle
  // rule fires repeatedly.
  GraphBuilder b(9);
  auto tri = [&](VertexId a) {
    b.add_edge(a, a + 1);
    b.add_edge(a + 1, a + 2);
    b.add_edge(a, a + 2);
  };
  tri(0);
  tri(3);
  tri(6);
  b.add_edge(2, 3);
  b.add_edge(5, 6);
  DenseSubgraph s = induce_all(b.build());
  std::size_t mvc = vc::minimum_vertex_cover(s);
  EXPECT_GE(mvc, 6u);  // 2 per triangle
  EXPECT_LE(mvc, 7u);
  auto r = vc::solve_kvc(s, static_cast<std::int64_t>(mvc));
  EXPECT_TRUE(r.feasible);
}

TEST(EdgeCases, McViaVcOnNearCompleteGraph) {
  // K30 minus a perfect matching: omega = 15? No — omega = 29 - ... :
  // each vertex misses exactly one other, so a maximum clique picks one
  // endpoint per missing edge: omega = 15.
  GraphBuilder b(30);
  for (VertexId i = 0; i < 30; ++i) {
    for (VertexId j = i + 1; j < 30; ++j) {
      if (!(j == i + 15 && i < 15)) b.add_edge(i, j);
    }
  }
  DenseSubgraph s = induce_all(b.build());
  auto r = vc::max_clique_via_vc(s, 0);
  EXPECT_EQ(r.clique.size(), 15u);
  auto ref = baselines::max_clique_reference(b.build());
  EXPECT_EQ(ref.size(), 15u);
}

// ---- io robustness ----------------------------------------------------------

TEST(EdgeCases, DimacsIgnoresUnknownRecords) {
  std::istringstream in(
      "c comment\n"
      "p edge 4 2\n"
      "n 1 3\n"
      "e 1 2\n"
      "d 0 0\n"
      "e 3 4\n");
  Graph g = io::read_dimacs(in);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(EdgeCases, EdgeListWithLargeIds) {
  std::istringstream in("0 999999\n999999 12345\n");
  Graph g = io::read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 1000000u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(999999), 2u);
}

// ---- lazy graph boundaries --------------------------------------------------

TEST(EdgeCases, LazyGraphVertexWithNoNeighbors) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  Graph g = b.build();
  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  std::atomic<VertexId> inc{0};
  LazyGraph lazy(g, order, core.coreness, &inc);
  for (VertexId v = 0; v < 5; ++v) {
    auto s = lazy.sorted_neighborhood(v);
    auto& h = lazy.hashed_neighborhood(v);
    EXPECT_EQ(s.size(), h.size());
  }
}

TEST(EdgeCases, LazyGraphNullIncumbentPointerFiltersNothing) {
  Graph g = gen::gnp(40, 0.2, 301);
  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  LazyGraph lazy(g, order, core.coreness, nullptr);
  std::size_t total = 0;
  for (VertexId v = 0; v < 40; ++v) total += lazy.sorted_neighborhood(v).size();
  EXPECT_EQ(total, 2 * g.num_edges());
}

// ---- order boundaries -------------------------------------------------------

TEST(EdgeCases, OrderOfEmptyAndSingletonGraphs) {
  Graph empty;
  auto core_e = kcore::coreness(empty);
  auto order_e =
      kcore::order_by_coreness_degree(empty, core_e.coreness);
  EXPECT_EQ(order_e.size(), 0u);

  GraphBuilder b(1);
  Graph one = b.build();
  auto core_1 = kcore::coreness(one);
  auto order_1 = kcore::order_by_coreness_degree(one, core_1.coreness);
  ASSERT_EQ(order_1.size(), 1u);
  EXPECT_EQ(order_1.new_to_orig[0], 0u);
}

TEST(EdgeCases, RelabelRoundTripsThroughInverseOrder) {
  Graph g = gen::gnp(30, 0.3, 303);
  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  Graph h = kcore::relabel(g, order);
  // Relabel back with the inverse permutation: must equal the original.
  kcore::VertexOrder inverse;
  inverse.new_to_orig = order.orig_to_new;
  inverse.orig_to_new = order.new_to_orig;
  Graph back = kcore::relabel(h, inverse);
  EXPECT_TRUE(std::ranges::equal(back.adjacency(), g.adjacency()));
  EXPECT_TRUE(std::ranges::equal(back.offsets(), g.offsets()));
}

}  // namespace
}  // namespace lazymc

// Tests for vertex ordering and relabelling.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"

namespace lazymc {
namespace {

TEST(Order, IsBijective) {
  Graph g = gen::gnp(80, 0.1, 3);
  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  ASSERT_EQ(order.size(), g.num_vertices());
  std::vector<char> seen(g.num_vertices(), 0);
  for (VertexId i = 0; i < order.size(); ++i) {
    VertexId orig = order.new_to_orig[i];
    EXPECT_FALSE(seen[orig]);
    seen[orig] = 1;
    EXPECT_EQ(order.orig_to_new[orig], i);
  }
}

TEST(Order, SortedByCorenessThenDegree) {
  Graph g = gen::plant_clique(gen::gnp(100, 0.05, 5), 9, 6);
  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  for (VertexId i = 0; i + 1 < order.size(); ++i) {
    VertexId a = order.new_to_orig[i];
    VertexId b = order.new_to_orig[i + 1];
    std::pair<VertexId, VertexId> ka{core.coreness[a], g.degree(a)};
    std::pair<VertexId, VertexId> kb{core.coreness[b], g.degree(b)};
    EXPECT_LE(ka, kb) << "position " << i;
  }
}

TEST(Order, DeterministicStability) {
  Graph g = gen::gnp(60, 0.1, 7);
  auto core = kcore::coreness(g);
  auto a = kcore::order_by_coreness_degree(g, core.coreness);
  auto b = kcore::order_by_coreness_degree(g, core.coreness);
  EXPECT_EQ(a.new_to_orig, b.new_to_orig);
}

TEST(Order, SizeMismatchThrows) {
  Graph g = gen::path(5);
  std::vector<VertexId> wrong(3, 0);
  EXPECT_THROW(kcore::order_by_coreness_degree(g, wrong),
               std::invalid_argument);
}

TEST(Order, FromPeelRespectsSequence) {
  Graph g = gen::path(4);
  std::vector<VertexId> peel{3, 1, 2, 0};
  auto order = kcore::order_from_peel(g, peel);
  EXPECT_EQ(order.new_to_orig, peel);
  EXPECT_EQ(order.orig_to_new[3], 0u);
  EXPECT_EQ(order.orig_to_new[0], 3u);
}

TEST(Order, FromPeelAppendsMissingVertices) {
  Graph g = gen::path(5);
  std::vector<VertexId> partial{4, 2};
  auto order = kcore::order_from_peel(g, partial);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order.new_to_orig[0], 4u);
  EXPECT_EQ(order.new_to_orig[1], 2u);
  // remaining in original-id order
  EXPECT_EQ(order.new_to_orig[2], 0u);
  EXPECT_EQ(order.new_to_orig[3], 1u);
  EXPECT_EQ(order.new_to_orig[4], 3u);
}

TEST(Relabel, PreservesStructure) {
  Graph g = gen::gnp(50, 0.15, 9);
  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  Graph h = kcore::relabel(g, order);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      EXPECT_TRUE(h.has_edge(order.orig_to_new[v], order.orig_to_new[u]));
    }
  }
}

TEST(Relabel, NeighborListsSorted) {
  Graph g = gen::gnp(40, 0.2, 11);
  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  Graph h = kcore::relabel(g, order);
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    auto nbrs = h.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
}

TEST(Order, PeelOrderBoundsRightNeighborhoods) {
  // The degeneracy peeling order guarantees right-neighborhoods <=
  // coreness; the (coreness, degree) order should stay close in practice.
  Graph g = gen::gnp(120, 0.08, 13);
  auto core = kcore::coreness(g);
  auto peel_order = kcore::order_from_peel(g, core.peel_order);
  EXPECT_LE(kcore::max_right_neighborhood(g, peel_order), core.degeneracy);
}

}  // namespace
}  // namespace lazymc

// Tests for maximum clique via k-VC on the complement (algorithmic choice).
#include <gtest/gtest.h>

#include "baselines/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "vc/kvc.hpp"
#include "vc/mc_via_vc.hpp"

namespace lazymc {
namespace {

DenseSubgraph induce_all(const Graph& g) {
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  return induce_dense(g, all);
}

bool local_clique(const DenseSubgraph& s, const std::vector<VertexId>& c) {
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (std::size_t j = i + 1; j < c.size(); ++j) {
      if (!s.adj[c[i]].test(c[j])) return false;
    }
  }
  return true;
}

TEST(McViaVc, CompleteGraph) {
  DenseSubgraph s = induce_all(gen::complete(8));
  auto r = vc::max_clique_via_vc(s, 0);
  EXPECT_EQ(r.clique.size(), 8u);
}

TEST(McViaVc, EdgelessGraph) {
  GraphBuilder b(6);
  DenseSubgraph s = induce_all(b.build());
  auto r = vc::max_clique_via_vc(s, 0);
  EXPECT_EQ(r.clique.size(), 1u);
}

TEST(McViaVc, MatchesNaiveOnDenseRandomGraphs) {
  // Dense graphs are the regime this path is chosen for.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Graph g = gen::gnp(16, 0.7, seed);
    auto naive = baselines::max_clique_naive(g);
    DenseSubgraph s = induce_all(g);
    auto r = vc::max_clique_via_vc(s, 0);
    EXPECT_EQ(r.clique.size(), naive.size()) << "seed " << seed;
    EXPECT_TRUE(local_clique(s, r.clique)) << "seed " << seed;
  }
}

TEST(McViaVc, RespectsLowerBound) {
  DenseSubgraph s = induce_all(gen::cycle(8));  // omega = 2
  auto r = vc::max_clique_via_vc(s, 2);
  EXPECT_TRUE(r.clique.empty());  // nothing > 2 exists
  auto r1 = vc::max_clique_via_vc(s, 1);
  EXPECT_EQ(r1.clique.size(), 2u);
}

TEST(McViaVc, LowerBoundEqualToSizeReturnsEmpty) {
  DenseSubgraph s = induce_all(gen::complete(5));
  auto r = vc::max_clique_via_vc(s, 5);
  EXPECT_TRUE(r.clique.empty());
  auto r4 = vc::max_clique_via_vc(s, 4);
  EXPECT_EQ(r4.clique.size(), 5u);
}

TEST(McViaVc, AgreesWithBBOnDenseSuiteLikeBlocks) {
  Graph g = gen::gene_blocks(60, 6, 20, 0.85, 7);
  auto ref = baselines::max_clique_reference(g);
  DenseSubgraph s = induce_all(g);
  auto r = vc::max_clique_via_vc(s, 0);
  EXPECT_EQ(r.clique.size(), ref.size());
  EXPECT_TRUE(local_clique(s, r.clique));
}

TEST(McViaVc, CancelledControlStops) {
  Graph g = gen::gnp(60, 0.8, 9);
  DenseSubgraph s = induce_all(g);
  SolveControl control;
  control.cancel();
  auto r = vc::max_clique_via_vc(s, 0, &control);
  EXPECT_TRUE(r.timed_out);
  EXPECT_TRUE(r.clique.empty());
}

TEST(McViaVc, BoundAtOrAboveOmegaTakesOneProbe) {
  // Probe-first: with nothing above the bound, the call is exactly one
  // k-VC probe for clique size lower_bound + 1.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Graph g = gen::gnp(30, 0.75, seed);
    const std::size_t omega = baselines::max_clique_reference(g).size();
    DenseSubgraph s = induce_all(g);
    DenseSubgraph comp = s.complement();
    const std::size_t n = s.size();
    for (std::size_t lb = omega; lb < n; ++lb) {
      auto r = vc::max_clique_via_vc(s, static_cast<VertexId>(lb));
      auto single =
          vc::solve_kvc(comp, static_cast<std::int64_t>(n - lb - 1));
      EXPECT_FALSE(single.feasible) << "seed " << seed << " lb " << lb;
      EXPECT_TRUE(r.clique.empty()) << "seed " << seed << " lb " << lb;
      EXPECT_EQ(r.nodes, single.nodes) << "seed " << seed << " lb " << lb;
    }
  }
}

TEST(McViaVc, EveryLowerBoundAgreesWithReference) {
  // Every bound in [0, omega] on dense gnp and planted-clique graphs: a
  // maximum clique below omega, nothing at omega.
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    graphs.push_back(gen::gnp(36, 0.8, seed));
    graphs.push_back(gen::plant_clique(gen::gnp(40, 0.5, seed), 15, seed));
  }
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const std::size_t omega = baselines::max_clique_reference(g).size();
    DenseSubgraph s = induce_all(g);
    for (std::size_t lb = 0; lb <= omega; ++lb) {
      auto r = vc::max_clique_via_vc(s, static_cast<VertexId>(lb));
      EXPECT_EQ(r.clique.empty(), lb >= omega)
          << "graph " << i << " lb " << lb;
      if (lb < omega) {
        EXPECT_EQ(r.clique.size(), omega) << "graph " << i << " lb " << lb;
        EXPECT_TRUE(is_clique(g, r.clique)) << "graph " << i << " lb " << lb;
      }
    }
  }
}

TEST(McViaVc, NodesAccumulateAcrossProbes) {
  Graph g = gen::gnp(20, 0.6, 11);
  DenseSubgraph s = induce_all(g);
  auto r = vc::max_clique_via_vc(s, 0);
  EXPECT_GT(r.nodes, 0u);
}

}  // namespace
}  // namespace lazymc

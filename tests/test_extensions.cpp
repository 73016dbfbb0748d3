// Tests for extension features: configurable filter rounds and the k-VC
// matching bound.
#include <gtest/gtest.h>

#include "baselines/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "mc/lazymc.hpp"
#include "support/parallel.hpp"
#include "vc/kvc.hpp"

namespace lazymc {
namespace {

TEST(FilterRounds, AllRoundCountsGiveExactAnswer) {
  Graph g = gen::plant_clique(gen::gnp(90, 0.15, 61), 10, 62);
  auto ref = baselines::max_clique_reference(g);
  for (unsigned rounds : {1u, 2u, 3u, 5u}) {
    mc::LazyMCConfig cfg;
    cfg.degree_filter_rounds = rounds;
    auto r = mc::lazy_mc(g, cfg);
    EXPECT_EQ(r.omega, ref.size()) << "rounds " << rounds;
  }
}

TEST(FilterRounds, MoreRoundsNeverSearchMore) {
  Graph g = gen::gnp(120, 0.15, 63);
  std::uint64_t searched_prev = ~0ull;
  for (unsigned rounds : {1u, 2u, 4u}) {
    mc::LazyMCConfig cfg;
    cfg.degree_filter_rounds = rounds;
    auto r = mc::lazy_mc(g, cfg);
    EXPECT_LE(r.search.pass_filter3, searched_prev) << "rounds " << rounds;
    searched_prev = r.search.pass_filter3;
  }
}

TEST(FilterRounds, OneRoundStopsAfterFilter2) {
  // On this graph a second degree-filter round removes heads that passed
  // the first; with one round, every head that passes filter 2 is searched.
  Graph g = gen::gnp(120, 0.15, 63);
  set_num_threads(1);
  mc::LazyMCConfig two;
  two.degree_filter_rounds = 2;
  auto r2 = mc::lazy_mc(g, two);
  ASSERT_LT(r2.search.pass_filter3, r2.search.pass_filter2);
  mc::LazyMCConfig one;
  one.degree_filter_rounds = 1;
  auto r1 = mc::lazy_mc(g, one);
  EXPECT_EQ(r1.search.pass_filter3, r1.search.pass_filter2);
  EXPECT_GT(r1.search.pass_filter3, r2.search.pass_filter3);
  EXPECT_EQ(r1.omega, r2.omega);
  set_num_threads(0);
}

TEST(KvcMatchingBound, LargeKInfeasibleProvedQuickly) {
  // A perfect matching of size 40 on 80 vertices: any VC needs >= 40
  // vertices, so k = 39 is infeasible.  The matching bound proves this at
  // the root instead of branching.
  GraphBuilder b(80);
  for (VertexId i = 0; i < 40; ++i) b.add_edge(2 * i, 2 * i + 1);
  // Degree-1 kernelisation would solve a bare matching; densify it so
  // branching would otherwise be needed.
  Graph matching = b.build();
  Graph noise = gen::gnp(80, 0.3, 71);
  Graph g = gen::graph_union(matching, noise);
  DenseSubgraph s = [&] {
    std::vector<VertexId> all(80);
    for (VertexId v = 0; v < 80; ++v) all[v] = v;
    return induce_dense(g, all);
  }();
  std::size_t truth = vc::minimum_vertex_cover(s);
  ASSERT_GE(truth, 40u);
  auto r = vc::solve_kvc(s, 39);
  EXPECT_FALSE(r.feasible);
  EXPECT_LE(r.nodes, 5u);  // bound fires near the root, no deep branching
}

TEST(KvcMatchingBound, DoesNotBreakFeasibleInstances) {
  for (std::uint64_t seed = 80; seed <= 90; ++seed) {
    Graph g = gen::gnp(14, 0.5, seed);
    std::vector<VertexId> all(14);
    for (VertexId v = 0; v < 14; ++v) all[v] = v;
    DenseSubgraph s = induce_dense(g, all);
    std::size_t truth = vc::minimum_vertex_cover(s);
    auto r = vc::solve_kvc(s, static_cast<std::int64_t>(truth));
    EXPECT_TRUE(r.feasible) << "seed " << seed;
    if (truth > 0) {
      EXPECT_FALSE(
          vc::solve_kvc(s, static_cast<std::int64_t>(truth) - 1).feasible);
    }
  }
}

TEST(VertexOrderKind, PeelingOrderGivesExactAnswer) {
  for (std::uint64_t seed = 100; seed <= 106; ++seed) {
    Graph g = gen::gnp(70, 0.2, seed);
    auto ref = baselines::max_clique_reference(g);
    mc::LazyMCConfig cfg;
    cfg.vertex_order = mc::VertexOrderKind::kPeeling;
    auto r = mc::lazy_mc(g, cfg);
    EXPECT_EQ(r.omega, ref.size()) << "seed " << seed;
    EXPECT_TRUE(is_clique(g, r.clique));
  }
}

TEST(VertexOrderKind, BothOrdersAgreeOnStructuredGraphs) {
  Graph g = gen::plant_clique(gen::barabasi_albert(200, 4, 107), 13, 108);
  mc::LazyMCConfig a, b;
  a.vertex_order = mc::VertexOrderKind::kCorenessDegree;
  b.vertex_order = mc::VertexOrderKind::kPeeling;
  EXPECT_EQ(mc::lazy_mc(g, a).omega, mc::lazy_mc(g, b).omega);
}

TEST(VcFallback, MispredictionFallsBackToMcAndStaysExact) {
  // Force every searched subgraph through k-VC (phi ~ 0) with a tiny node
  // budget: most probes abandon and re-solve as MC; the answer must be
  // exact and the fallback counter visible.
  Graph g = gen::planted_partition(4, 50, 0.5, 4.0, 121);
  auto ref = baselines::max_clique_reference(g);
  mc::LazyMCConfig cfg;
  cfg.density_threshold = 0.01;
  auto r = mc::lazy_mc(g, cfg);
  EXPECT_EQ(r.omega, ref.size());
  // With the default budget, mid-density subgraphs should trigger at
  // least one fallback OR solve within budget; either way exactness held.
  EXPECT_EQ(r.search.pass_filter3,
            r.search.solved_mc + r.search.solved_vc);
}

TEST(VcFallback, ZeroBudgetDisablesFallback) {
  Graph g = gen::gnp(50, 0.4, 123);
  auto ref = baselines::max_clique_reference(g);
  mc::LazyMCConfig cfg;
  cfg.density_threshold = 0.0;       // everything to k-VC
  cfg.vc_node_budget_per_vertex = 0;  // no fallback: pure k-VC route
  auto r = mc::lazy_mc(g, cfg);
  EXPECT_EQ(r.omega, ref.size());
  EXPECT_EQ(r.search.vc_fallbacks, 0u);
}

TEST(DensityThreshold, MidDensityGraphSolvesUnderDefault) {
  // Regression for the mid-density blowup: community graphs with ~55%
  // dense neighborhoods must solve promptly under the default threshold.
  Graph g = gen::planted_partition(4, 60, 0.55, 4.0, 73);
  auto ref = baselines::max_clique_reference(g);
  mc::LazyMCConfig cfg;
  cfg.time_limit_seconds = 60.0;
  auto r = mc::lazy_mc(g, cfg);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.omega, ref.size());
}

}  // namespace
}  // namespace lazymc

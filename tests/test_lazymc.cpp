// Integration tests for the full LazyMC pipeline (Algorithm 1).
#include <gtest/gtest.h>

#include "baselines/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "kcore/kcore.hpp"
#include "mc/lazymc.hpp"
#include "support/parallel.hpp"

namespace lazymc {
namespace {

TEST(LazyMC, EmptyGraph) {
  auto r = mc::lazy_mc(Graph{});
  EXPECT_EQ(r.omega, 0u);
  EXPECT_TRUE(r.clique.empty());
}

TEST(LazyMC, SingleVertexAndSingleEdge) {
  GraphBuilder b1(1);
  auto r1 = mc::lazy_mc(b1.build());
  EXPECT_EQ(r1.omega, 1u);

  auto r2 = mc::lazy_mc(graph_from_edges(2, {{0, 1}}));
  EXPECT_EQ(r2.omega, 2u);
}

TEST(LazyMC, CompleteGraph) {
  auto r = mc::lazy_mc(gen::complete(20));
  EXPECT_EQ(r.omega, 20u);
  EXPECT_FALSE(r.timed_out);
}

TEST(LazyMC, BipartiteOmegaTwo) {
  auto r = mc::lazy_mc(gen::bipartite(40, 40, 0.2, 3));
  EXPECT_EQ(r.omega, 2u);
}

TEST(LazyMC, MatchesReferenceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Graph g = gen::gnp(70, 0.2, seed);
    auto ref = baselines::max_clique_reference(g);
    auto r = mc::lazy_mc(g);
    EXPECT_EQ(r.omega, ref.size()) << "seed " << seed;
    EXPECT_TRUE(is_clique(g, r.clique)) << "seed " << seed;
  }
}

TEST(LazyMC, MatchesReferenceOnDenseGraphs) {
  for (std::uint64_t seed = 20; seed <= 26; ++seed) {
    Graph g = gen::gnp(45, 0.6, seed);
    auto ref = baselines::max_clique_reference(g);
    auto r = mc::lazy_mc(g);
    EXPECT_EQ(r.omega, ref.size()) << "seed " << seed;
    EXPECT_TRUE(is_clique(g, r.clique)) << "seed " << seed;
  }
}

TEST(LazyMC, FindsPlantedClique) {
  std::vector<VertexId> members;
  Graph g = gen::plant_clique(gen::gnp(300, 0.02, 31), 15, 32, &members);
  auto r = mc::lazy_mc(g);
  EXPECT_GE(r.omega, 15u);
  EXPECT_TRUE(is_clique(g, r.clique));
}

TEST(LazyMC, HeuristicOmegasAreLowerBounds) {
  Graph g = gen::plant_clique(gen::gnp(150, 0.05, 33), 12, 34);
  auto ref = baselines::max_clique_reference(g);
  auto r = mc::lazy_mc(g);
  EXPECT_LE(r.heuristic_degree_omega, r.omega);
  EXPECT_LE(r.heuristic_coreness_omega, r.omega);
  EXPECT_GE(r.heuristic_coreness_omega, r.heuristic_degree_omega);
  EXPECT_EQ(r.omega, ref.size());
}

TEST(LazyMC, OmegaBoundedByDegeneracyPlusOne) {
  std::vector<Graph> inputs;
  for (std::uint64_t seed = 40; seed <= 45; ++seed) {
    inputs.push_back(gen::gnp(80, 0.15, seed));
  }
  // ω_d = 7 exceeds the degeneracy 6: the reported degeneracy must still
  // be the graph's, not that of a core filtered at the incumbent.
  inputs.push_back(gen::complete(7));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Graph& g = inputs[i];
    auto r = mc::lazy_mc(g);
    EXPECT_LE(r.omega, r.degeneracy + 1) << "input " << i;
    EXPECT_EQ(r.degeneracy, kcore::coreness(g).degeneracy) << "input " << i;
  }
}

TEST(LazyMC, AllPrepopulationPoliciesAgree) {
  Graph g = gen::plant_clique(gen::gnp(100, 0.1, 47), 10, 48);
  auto ref = baselines::max_clique_reference(g);
  for (auto policy : {Prepopulate::kNone, Prepopulate::kMustSubgraph,
                      Prepopulate::kAll}) {
    mc::LazyMCConfig cfg;
    cfg.prepopulate = policy;
    auto r = mc::lazy_mc(g, cfg);
    EXPECT_EQ(r.omega, ref.size()) << "policy " << static_cast<int>(policy);
  }
}

TEST(LazyMC, EarlyExitAblationsAgree) {
  Graph g = gen::plant_clique(gen::gnp(90, 0.12, 49), 9, 50);
  auto ref = baselines::max_clique_reference(g);
  for (bool early : {true, false}) {
    for (bool second : {true, false}) {
      mc::LazyMCConfig cfg;
      cfg.early_exit_intersections = early;
      cfg.second_exit = second;
      auto r = mc::lazy_mc(g, cfg);
      EXPECT_EQ(r.omega, ref.size()) << early << "/" << second;
    }
  }
}

TEST(LazyMC, DensityThresholdSweepAgrees) {
  Graph g = gen::gene_blocks(80, 8, 25, 0.8, 51);
  auto ref = baselines::max_clique_reference(g);
  for (double phi : {0.0, 0.1, 0.5, 0.9, 1.1}) {
    mc::LazyMCConfig cfg;
    cfg.density_threshold = phi;
    auto r = mc::lazy_mc(g, cfg);
    EXPECT_EQ(r.omega, ref.size()) << "phi " << phi;
  }
}

TEST(LazyMC, ThreadCountsAgree) {
  Graph g = gen::plant_clique(gen::gnp(120, 0.08, 53), 11, 54);
  auto ref = baselines::max_clique_reference(g);
  for (std::size_t threads : {1u, 2u, 4u}) {
    set_num_threads(threads);
    auto r = mc::lazy_mc(g);
    EXPECT_EQ(r.omega, ref.size()) << "threads " << threads;
    EXPECT_TRUE(is_clique(g, r.clique));
  }
  set_num_threads(0);  // restore default
}

TEST(LazyMC, PhaseTimesCoverRun) {
  Graph g = gen::gnp(100, 0.1, 55);
  auto r = mc::lazy_mc(g);
  EXPECT_GT(r.phases.total(), 0.0);
  EXPECT_GE(r.phases.degree_heuristic, 0.0);
  EXPECT_GE(r.phases.preprocessing, 0.0);
  EXPECT_GE(r.phases.systematic, 0.0);
}

TEST(LazyMC, TimeoutFlagPropagates) {
  // Dense, large: cannot finish instantly; with an expired budget the
  // result must carry timed_out (omega may be a lower bound only).
  Graph g = gen::gnp(300, 0.5, 57);
  mc::LazyMCConfig cfg;
  cfg.time_limit_seconds = 0.0;
  auto r = mc::lazy_mc(g, cfg);
  EXPECT_TRUE(r.timed_out);
}

TEST(LazyMC, CliqueIsSortedAndValid) {
  Graph g = gen::plant_clique(gen::gnp(80, 0.1, 59), 9, 60);
  auto r = mc::lazy_mc(g);
  EXPECT_TRUE(std::is_sorted(r.clique.begin(), r.clique.end()));
  EXPECT_TRUE(is_clique(g, r.clique));
  EXPECT_EQ(r.clique.size(), r.omega);
}

TEST(LazyMC, SolvesTinySuiteInstancesExactly) {
  // Cross-check a few structurally diverse suite instances against the
  // reference solver (kTiny keeps reference solves cheap).
  for (const char* name : {"USAroad", "dblp", "yahoo", "HS-CX", "talk"}) {
    auto inst = suite::make_instance(name, suite::Scale::kTiny);
    auto ref = baselines::max_clique_reference(inst.graph);
    auto r = mc::lazy_mc(inst.graph);
    EXPECT_EQ(r.omega, ref.size()) << name;
    EXPECT_TRUE(is_clique(inst.graph, r.clique)) << name;
  }
}

}  // namespace
}  // namespace lazymc

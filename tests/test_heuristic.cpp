// Tests for the degree-based and coreness-based heuristic searches.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/heuristic.hpp"
#include "support/parallel.hpp"

namespace lazymc {
namespace {

TEST(DegreeHeuristic, FindsValidClique) {
  Graph g = gen::plant_clique(gen::gnp(100, 0.05, 3), 10, 4);
  Incumbent incumbent;
  mc::degree_based_heuristic(g, incumbent);
  auto clique = incumbent.snapshot();
  EXPECT_GE(clique.size(), 2u);
  EXPECT_TRUE(is_clique(g, clique));
}

TEST(DegreeHeuristic, ExactOnCompleteGraph) {
  Graph g = gen::complete(12);
  Incumbent incumbent;
  mc::degree_based_heuristic(g, incumbent);
  EXPECT_EQ(incumbent.size(), 12u);
}

TEST(DegreeHeuristic, EmptyGraphNoCrash) {
  Graph g;
  Incumbent incumbent;
  mc::degree_based_heuristic(g, incumbent);
  EXPECT_EQ(incumbent.size(), 0u);
}

TEST(DegreeHeuristic, SingleVertex) {
  GraphBuilder b(1);
  Graph g = b.build();
  Incumbent incumbent;
  mc::degree_based_heuristic(g, incumbent);
  EXPECT_EQ(incumbent.size(), 1u);
}

TEST(DegreeHeuristic, NeverExceedsOmega) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Graph g = gen::gnp(40, 0.3, seed);
    auto ref = baselines::max_clique_reference(g);
    Incumbent incumbent;
    mc::degree_based_heuristic(g, incumbent);
    EXPECT_LE(incumbent.size(), ref.size()) << "seed " << seed;
    EXPECT_TRUE(is_clique(g, incumbent.snapshot()));
  }
}

TEST(DegreeHeuristic, TopKZeroSeedsIsNoop) {
  Graph g = gen::complete(5);
  Incumbent incumbent;
  mc::HeuristicOptions opt;
  opt.top_k = 0;
  mc::degree_based_heuristic(g, incumbent, opt);
  EXPECT_EQ(incumbent.size(), 0u);
}

TEST(DegreeHeuristic, FindsPlantedCliqueOnHubSeed) {
  // The planted clique members are the highest-degree vertices in a sparse
  // background, so the heuristic should recover it exactly.
  Graph bg = gen::gnp(200, 0.01, 7);
  std::vector<VertexId> members;
  Graph g = gen::plant_clique(bg, 14, 8, &members);
  Incumbent incumbent;
  mc::HeuristicOptions opt;
  opt.top_k = 32;
  mc::degree_based_heuristic(g, incumbent, opt);
  EXPECT_GE(incumbent.size(), 12u);  // near-exact greedy recovery
}

// Reference for the degree heuristic: seeds in top-degree order, run one
// after another, each filtered by the incumbent size so far; each step
// takes the first candidate with the most neighbours among the candidates,
// counted by binary search.  Returns the clique the incumbent ends with.
std::vector<VertexId> sorted_degree_greedy(const Graph& g, VertexId top_k) {
  const VertexId k = std::min(top_k, g.num_vertices());
  std::vector<VertexId> seeds(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) seeds[v] = v;
  std::partial_sort(seeds.begin(), seeds.begin() + k, seeds.end(),
                    [&](VertexId a, VertexId b) {
                      return g.degree(a) > g.degree(b);
                    });
  seeds.resize(k);
  auto adjacent = [&](VertexId a, VertexId b) {
    auto nbrs = g.neighbors(a);
    return std::binary_search(nbrs.begin(), nbrs.end(), b);
  };
  std::vector<VertexId> best;
  for (VertexId v : seeds) {
    std::vector<VertexId> cand, clique{v};
    for (VertexId u : g.neighbors(v)) {
      if (g.degree(u) >= best.size()) cand.push_back(u);
    }
    while (!cand.empty()) {
      VertexId pick = cand.front();
      std::size_t pick_deg = 0;
      for (VertexId w : cand) {
        std::size_t d = 0;
        for (VertexId x : cand) d += adjacent(w, x) ? 1 : 0;
        if (d > pick_deg) {
          pick_deg = d;
          pick = w;
        }
      }
      clique.push_back(pick);
      std::erase_if(cand, [&](VertexId x) { return !adjacent(pick, x); });
    }
    if (clique.size() > best.size()) best = clique;
  }
  return best;
}

// Runs the heuristic at 1 and 4 threads, `repeats` times each, and checks
// that every run ends with exactly the reference's incumbent.
void expect_matches_reference(const Graph& g, const std::string& label,
                              int repeats = 10) {
  const mc::HeuristicOptions opt;
  const std::vector<VertexId> expected = sorted_degree_greedy(g, opt.top_k);
  for (std::size_t threads : {1, 4}) {
    set_num_threads(threads);
    for (int rep = 0; rep < repeats; ++rep) {
      Incumbent incumbent;
      mc::degree_based_heuristic(g, incumbent, opt);
      ASSERT_EQ(incumbent.size(), expected.size())
          << label << " at " << threads << " thread(s), repeat " << rep;
      ASSERT_EQ(incumbent.snapshot(), expected)
          << label << " at " << threads << " thread(s), repeat " << rep;
    }
  }
  set_num_threads(0);
}

TEST(DegreeHeuristic, MatchesSortedGreedyAtEveryThreadCount) {
  for (const std::string& name : suite::instance_names()) {
    expect_matches_reference(
        suite::make_instance(name, suite::Scale::kTiny).graph, name);
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_matches_reference(gen::gnp(300, 0.1, seed),
                             "gnp seed " + std::to_string(seed));
    expect_matches_reference(
        gen::plant_clique(gen::gnp(400, 0.03, seed), 15, seed + 100),
        "planted seed " + std::to_string(seed));
  }
}

// A star whose centre has more candidates than the bitset cap (4096), with
// a 12-clique and a path among the leaves: the centre's seed takes sorted
// steps before it switches to the bitset greedy.
Graph hub_graph() {
  constexpr VertexId kLeaves = 5000;
  GraphBuilder b(kLeaves + 1);
  for (VertexId leaf = 1; leaf <= kLeaves; ++leaf) {
    b.add_edge(0, leaf);
    if (leaf < kLeaves) b.add_edge(leaf, leaf + 1);
  }
  for (VertexId i = 0; i < 12; ++i) {
    for (VertexId j = i + 1; j < 12; ++j) {
      b.add_edge(37 + 401 * i, 37 + 401 * j);
    }
  }
  return b.build();
}

TEST(DegreeHeuristic, HubSeedAboveBitsetCapMatchesReference) {
  Graph g = hub_graph();
  expect_matches_reference(g, "hub", 2);
  Incumbent incumbent;
  mc::degree_based_heuristic(g, incumbent);
  EXPECT_EQ(incumbent.size(), 13u);
  EXPECT_TRUE(is_clique(g, incumbent.snapshot()));
}

TEST(DegreeHeuristic, HubSeedRespectsCancelledControl) {
  Graph g = hub_graph();
  SolveControl control;
  control.cancel();
  mc::HeuristicOptions opt;
  opt.control = &control;
  for (std::size_t threads : {1, 4}) {
    set_num_threads(threads);
    Incumbent incumbent;
    mc::degree_based_heuristic(g, incumbent, opt);
    EXPECT_EQ(incumbent.size(), 0u) << threads << " thread(s)";
    EXPECT_TRUE(incumbent.snapshot().empty());
  }
  set_num_threads(0);
}

struct LazyFixture {
  Graph g;
  kcore::CoreDecomposition core;
  kcore::VertexOrder order;
  Incumbent incumbent;
  std::unique_ptr<LazyGraph> lazy;

  explicit LazyFixture(Graph graph) : g(std::move(graph)) {
    core = kcore::coreness(g);
    order = kcore::order_by_coreness_degree(g, core.coreness);
    lazy = std::make_unique<LazyGraph>(g, order, core.coreness,
                                       &incumbent.size_atomic());
  }
};

TEST(CorenessHeuristic, FindsValidClique) {
  LazyFixture f(gen::plant_clique(gen::gnp(120, 0.04, 9), 11, 10));
  mc::coreness_based_heuristic(*f.lazy, f.incumbent);
  auto clique = f.incumbent.snapshot();
  EXPECT_GE(clique.size(), 3u);
  EXPECT_TRUE(is_clique(f.g, clique));
}

TEST(CorenessHeuristic, ExactOnCompleteGraph) {
  LazyFixture f(gen::complete(9));
  mc::coreness_based_heuristic(*f.lazy, f.incumbent);
  EXPECT_EQ(f.incumbent.size(), 9u);
}

TEST(CorenessHeuristic, RecoversZeroGapPlantedClique) {
  // Planted clique larger than the background degeneracy: coreness-based
  // search seeds at the top level, which is inside the clique, and walks
  // it fully (the paper's zero-gap graphs are solved this way).
  Graph bg = gen::barabasi_albert(300, 4, 11);
  Graph g = gen::plant_clique(bg, 16, 12);
  LazyFixture f(std::move(g));
  mc::coreness_based_heuristic(*f.lazy, f.incumbent);
  EXPECT_EQ(f.incumbent.size(), 16u);
  EXPECT_TRUE(is_clique(f.g, f.incumbent.snapshot()));
}

TEST(CorenessHeuristic, NeverExceedsOmega) {
  for (std::uint64_t seed = 20; seed <= 28; ++seed) {
    Graph g = gen::gnp(50, 0.25, seed);
    auto ref = baselines::max_clique_reference(g);
    LazyFixture f(std::move(g));
    mc::coreness_based_heuristic(*f.lazy, f.incumbent);
    EXPECT_LE(f.incumbent.size(), ref.size()) << "seed " << seed;
    EXPECT_TRUE(is_clique(f.g, f.incumbent.snapshot()));
  }
}

TEST(CorenessHeuristic, EmptyGraphNoCrash) {
  LazyFixture f(Graph{});
  mc::coreness_based_heuristic(*f.lazy, f.incumbent);
  EXPECT_EQ(f.incumbent.size(), 0u);
}

TEST(Heuristics, BothRespectCancelledControl) {
  Graph g = gen::gnp(100, 0.2, 30);
  SolveControl control;
  control.cancel();
  mc::HeuristicOptions opt;
  opt.control = &control;
  Incumbent incumbent;
  mc::degree_based_heuristic(g, incumbent, opt);
  EXPECT_EQ(incumbent.size(), 0u);
  LazyFixture f(std::move(g));
  mc::coreness_based_heuristic(*f.lazy, f.incumbent, opt);
  EXPECT_EQ(f.incumbent.size(), 0u);
}

TEST(Incumbent, OfferKeepsLargest) {
  Incumbent inc;
  std::vector<VertexId> a{1, 2};
  std::vector<VertexId> b{3, 4, 5};
  std::vector<VertexId> c{6};
  EXPECT_TRUE(inc.offer(a));
  EXPECT_TRUE(inc.offer(b));
  EXPECT_FALSE(inc.offer(c));
  EXPECT_FALSE(inc.offer(a));
  EXPECT_EQ(inc.size(), 3u);
  EXPECT_EQ(inc.snapshot(), b);
}

TEST(Incumbent, ConcurrentOffersConverge) {
  Incumbent inc;
  parallel_for(0, 1000, [&](std::size_t i) {
    std::vector<VertexId> clique(i % 50 + 1);
    for (std::size_t j = 0; j < clique.size(); ++j) {
      clique[j] = static_cast<VertexId>(j);
    }
    inc.offer(clique);
  });
  EXPECT_EQ(inc.size(), 50u);
  EXPECT_EQ(inc.snapshot().size(), 50u);
}

}  // namespace
}  // namespace lazymc

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

// The top-k vertices by degree, in the order the heuristic seeds them.
std::vector<VertexId> top_seeds(const Graph& g, VertexId top_k) {
  const VertexId k = std::min(top_k, g.num_vertices());
  std::vector<VertexId> seeds(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) seeds[v] = v;
  std::partial_sort(seeds.begin(), seeds.begin() + k, seeds.end(),
                    [&](VertexId a, VertexId b) {
                      return g.degree(a) > g.degree(b);
                    });
  seeds.resize(k);
  return seeds;
}

// Reference for the degree heuristic: seeds in top-degree order, run one
// after another, each filtered by the incumbent size so far; each step
// takes the first candidate with the most neighbours among the candidates,
// counted by binary search.  Returns the clique the incumbent ends with;
// `first_size`, when given, receives the size of seed 0's clique.
std::vector<VertexId> sorted_degree_greedy(const Graph& g, VertexId top_k,
                                           std::size_t* first_size = nullptr) {
  auto adjacent = [&](VertexId a, VertexId b) {
    auto nbrs = g.neighbors(a);
    return std::binary_search(nbrs.begin(), nbrs.end(), b);
  };
  const std::vector<VertexId> seeds = top_seeds(g, top_k);
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
    if (first_size && v == seeds.front()) *first_size = clique.size();
    if (clique.size() > best.size()) best = clique;
  }
  return best;
}

// U as the heuristic must plan it: the union of seeds 1..k-1's
// neighbours of degree >= `bound` (the size of seed 0's clique, grown
// under an empty incumbent), and whether its rows pay: the matrix's
// words, one CSR scan per member and one U row per seed candidate, in
// words and CSR entries, against one CSR scan per seed candidate.
struct UnionPlan {
  std::uint64_t members = 0;
  bool pays = false;
  // |U| as reported: 0 unless U is within 4096 and pays.
  std::uint64_t reported() const {
    return members <= 4096 && pays ? members : 0;
  }
};

UnionPlan plan_union(const Graph& g, VertexId top_k, std::size_t bound) {
  const std::vector<VertexId> seeds = top_seeds(g, top_k);
  std::vector<VertexId> u;
  std::uint64_t candidates = 0, seed_scans = 0, union_scans = 0;
  for (std::size_t i = 1; i < seeds.size(); ++i) {
    for (VertexId v : g.neighbors(seeds[i])) {
      if (g.degree(v) < bound) continue;
      ++candidates;
      seed_scans += g.degree(v);
      u.push_back(v);
    }
  }
  std::sort(u.begin(), u.end());
  u.erase(std::unique(u.begin(), u.end()), u.end());
  for (VertexId v : u) union_scans += g.degree(v);
  UnionPlan plan;
  plan.members = u.size();
  const std::uint64_t words = (plan.members + 63) / 64;
  plan.pays =
      (plan.members + candidates) * words + union_scans < seed_scans;
  return plan;
}

// Runs the heuristic at 1 and 4 threads, `repeats` times each, and checks
// that every run ends with exactly the reference's incumbent and reports
// the same counts, with |U| as planned.  Returns the counts, and the plan
// through `plan` when given.
mc::DegreeHeuristicStats expect_matches_reference(const Graph& g,
                                                  const std::string& label,
                                                  int repeats = 10,
                                                  UnionPlan* plan = nullptr) {
  const mc::HeuristicOptions opt;
  std::size_t first_size = 0;
  const std::vector<VertexId> expected =
      sorted_degree_greedy(g, opt.top_k, &first_size);
  const UnionPlan planned = plan_union(g, opt.top_k, first_size);
  if (plan) *plan = planned;
  const std::uint64_t union_size = planned.reported();
  mc::DegreeHeuristicStats first;
  bool have_first = false;
  for (std::size_t threads : {1, 4}) {
    set_num_threads(threads);
    for (int rep = 0; rep < repeats; ++rep) {
      Incumbent incumbent;
      const mc::DegreeHeuristicStats stats =
          mc::degree_based_heuristic(g, incumbent, opt);
      EXPECT_EQ(incumbent.size(), expected.size())
          << label << " at " << threads << " thread(s), repeat " << rep;
      EXPECT_EQ(incumbent.snapshot(), expected)
          << label << " at " << threads << " thread(s), repeat " << rep;
      if (!have_first) {
        first = stats;
        have_first = true;
      }
      EXPECT_EQ(stats.union_size, union_size) << label;
      EXPECT_EQ(stats.csr_rows, first.csr_rows) << label;
      EXPECT_EQ(stats.regrown, first.regrown) << label;
    }
  }
  set_num_threads(0);
  return first;
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

TEST(DegreeHeuristic, HubSeedProbesCountAsGallop) {
  Graph g = hub_graph();
  for (std::size_t threads : {1, 4}) {
    set_num_threads(threads);
    mc::KernelCounters counters;
    mc::HeuristicOptions opt;
    opt.intersect.counters = &counters;
    Incumbent incumbent;
    mc::degree_based_heuristic(g, incumbent, opt);
    EXPECT_GT(counters.gallop.load(), 0u) << threads << " thread(s)";
    EXPECT_EQ(counters.merge.load() + counters.hash.load() +
                  counters.hash_batched.load() +
                  counters.bitset_probe.load() + counters.bitset_word.load(),
              0u);
  }
  set_num_threads(0);
}

// Sixteen hubs over a row of leaves: each leaf is adjacent to the `band`
// leaves on either side, and hub h to the `window` leaves from h * shift
// on.  Leaves have about 2 * band neighbours, so each hub's candidate set
// is dense, and consecutive hubs share window - shift of them.
Graph banded_hubs(VertexId window, VertexId shift, VertexId band) {
  constexpr VertexId kHubs = 16;
  const VertexId leaves = window + (kHubs - 1) * shift;
  GraphBuilder b(kHubs + leaves);
  for (VertexId i = 0; i < leaves; ++i) {
    for (VertexId d = 1; d <= band && i + d < leaves; ++d) {
      b.add_edge(kHubs + i, kHubs + i + d);
    }
  }
  for (VertexId h = 0; h < kHubs; ++h) {
    for (VertexId i = h * shift; i < h * shift + window; ++i) {
      b.add_edge(h, kHubs + i);
    }
  }
  return b.build();
}

TEST(DegreeHeuristic, UnionOverCapBuildsRowsPerSeed) {
  // Every candidate set has 1,400 members, under the cap, and the union
  // of any 15 spans at least 1,400 + 14 * 200 > 4096 leaves.  Under the
  // cap, U's rows would pay; over it, each seed builds its own.
  Graph g = banded_hubs(1400, 200, 55);
  UnionPlan plan;
  const mc::DegreeHeuristicStats stats =
      expect_matches_reference(g, "banded hubs over the cap", 2, &plan);
  EXPECT_GT(plan.members, 4096u);
  EXPECT_TRUE(plan.pays);
  EXPECT_EQ(stats.union_size, 0u);
  EXPECT_GT(stats.csr_rows, plan.members);
}

TEST(DegreeHeuristic, UnionUnderCapSharesRows) {
  Graph g = banded_hubs(600, 100, 40);
  const mc::DegreeHeuristicStats stats =
      expect_matches_reference(g, "banded hubs under the cap", 2);
  EXPECT_GT(stats.union_size, 0u);
  // Seed 0's rows, then U's; the seeds cut theirs from U's.
  EXPECT_EQ(stats.csr_rows, 600u + stats.union_size);
}

TEST(DegreeHeuristic, UnionThatSavesNoScansIsNotBuilt) {
  // Sixteen hubs with private leaves: U, under the cap, is just the
  // candidate sets side by side, so each seed builds its own rows.
  constexpr VertexId kHubs = 16, kLeaves = 100;
  GraphBuilder b(kHubs * (kLeaves + 1));
  for (VertexId h = 0; h < kHubs; ++h) {
    const VertexId hub = h * (kLeaves + 1);
    for (VertexId i = 1; i <= kLeaves; ++i) {
      b.add_edge(hub, hub + i);
      if (i < kLeaves) b.add_edge(hub + i, hub + i + 1);
    }
  }
  Graph g = b.build();
  const mc::DegreeHeuristicStats stats =
      expect_matches_reference(g, "private leaves", 2);
  EXPECT_EQ(stats.union_size, 0u);
  // Seed 0's 100 rows, then 98 per other hub (its path ends have degree
  // 2, under seed 0's triangle).
  EXPECT_EQ(stats.csr_rows, 100u + 15u * 98u);
}

// Seed 0 is a star (its clique has 2 vertices); seed 1 sits in a 5-clique.
// Seed 2, s, has a 7-clique K (an 8-clique with s), a vertex x and 20
// vertices D adjacent to s and x only.  Under seed 0's bound 2, s's
// candidates include D, x has the most neighbours among them, and s grows
// {s, x, d}.  Under the 1-thread bound 5, D is filtered out, so the walk
// regrows s (and x) and s grows the 8-clique.
Graph regrow_graph() {
  GraphBuilder b(475);
  for (VertexId leaf = 1; leaf <= 200; ++leaf) b.add_edge(0, leaf);
  const VertexId h1 = 201;
  for (VertexId i = h1; i <= 205; ++i) {
    for (VertexId j = i + 1; j <= 205; ++j) b.add_edge(i, j);
  }
  for (VertexId leaf = 206; leaf <= 345; ++leaf) b.add_edge(h1, leaf);
  const VertexId s = 346, x = 354;
  for (VertexId i = s; i <= 353; ++i) {
    for (VertexId j = i + 1; j <= 353; ++j) b.add_edge(i, j);
  }
  b.add_edge(s, x);
  for (VertexId d = 355; d <= 374; ++d) {
    b.add_edge(s, d);
    b.add_edge(x, d);
  }
  for (VertexId leaf = 375; leaf <= 474; ++leaf) b.add_edge(s, leaf);
  return b.build();
}

TEST(DegreeHeuristic, WalkRegrowsSeedsOverSharedRows) {
  Graph g = regrow_graph();
  const mc::DegreeHeuristicStats stats =
      expect_matches_reference(g, "regrow", 2);
  EXPECT_GT(stats.union_size, 0u);
  EXPECT_GT(stats.regrown, 0u);
  // Seed 0's 200 rows and U's; the regrown seeds cut theirs from U's.
  EXPECT_EQ(stats.csr_rows, 200u + stats.union_size);
  Incumbent incumbent;
  mc::degree_based_heuristic(g, incumbent);
  EXPECT_EQ(incumbent.size(), 8u);
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

TEST(CorenessHeuristic, SeedsNoLevelBelowTheIncumbent) {
  // K7's one level has coreness 6, so it holds no clique larger than 7:
  // with an incumbent of 7 no level is seeded and no kernel runs.  The
  // lazy graph is built without the incumbent, so its neighborhoods are
  // unfiltered and only the level cut keeps the seed from growing.
  LazyFixture f(gen::complete(7));
  LazyGraph unfiltered(f.g, f.order, f.core.coreness, nullptr);
  const std::vector<VertexId> all{0, 1, 2, 3, 4, 5, 6};
  ASSERT_TRUE(f.incumbent.offer(all));
  mc::KernelCounters counters;
  mc::HeuristicOptions opt;
  opt.intersect.counters = &counters;
  mc::coreness_based_heuristic(unfiltered, f.incumbent, opt);
  std::uint64_t kernel_calls = 0;
#define LAZYMC_ADD(name) kernel_calls += counters.name.load();
  LAZYMC_KERNEL_COUNTERS(LAZYMC_ADD)
#undef LAZYMC_ADD
  EXPECT_EQ(kernel_calls, 0u);
  EXPECT_EQ(f.incumbent.snapshot(), all);
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

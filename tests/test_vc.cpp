// Tests for the k-Vertex-Cover branch-and-bound solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baselines/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "vc/kvc.hpp"

namespace lazymc {
namespace {

DenseSubgraph induce_all(const Graph& g) {
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  return induce_dense(g, all);
}

/// Checks that `cover` covers every edge of s.
bool is_cover(const DenseSubgraph& s, const std::vector<VertexId>& cover) {
  std::vector<char> in(s.size(), 0);
  for (VertexId v : cover) {
    if (v >= s.size()) return false;
    in[v] = 1;
  }
  for (std::size_t v = 0; v < s.size(); ++v) {
    for (std::size_t u = v + 1; u < s.size(); ++u) {
      if (s.adj[v].test(u) && !in[v] && !in[u]) return false;
    }
  }
  return true;
}

/// Exponential reference minimum VC for n <= 20.
std::size_t min_vc_naive(const DenseSubgraph& s) {
  std::size_t n = s.size();
  std::size_t best = n;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::size_t count = static_cast<std::size_t>(__builtin_popcount(mask));
    if (count >= best) continue;
    bool covers = true;
    for (std::size_t v = 0; v < n && covers; ++v) {
      for (std::size_t u = v + 1; u < n && covers; ++u) {
        if (s.adj[v].test(u) && !(mask & (1u << v)) && !(mask & (1u << u))) {
          covers = false;
        }
      }
    }
    if (covers) best = count;
  }
  return best;
}

TEST(Kvc, EmptyGraphFeasibleAtZero) {
  GraphBuilder b(5);
  DenseSubgraph s = induce_all(b.build());
  auto r = vc::solve_kvc(s, 0);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(r.cover.empty());
}

TEST(Kvc, NegativeKInfeasible) {
  DenseSubgraph s = induce_all(gen::path(3));
  auto r = vc::solve_kvc(s, -1);
  EXPECT_FALSE(r.feasible);
}

TEST(Kvc, SingleEdgeNeedsOne) {
  DenseSubgraph s = induce_all(gen::path(2));
  EXPECT_FALSE(vc::solve_kvc(s, 0).feasible);
  auto r = vc::solve_kvc(s, 1);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(is_cover(s, r.cover));
  EXPECT_LE(r.cover.size(), 1u);
}

TEST(Kvc, PathsNeedFloorHalf) {
  for (VertexId n : {3u, 4u, 5u, 8u, 13u}) {
    DenseSubgraph s = induce_all(gen::path(n));
    std::size_t need = n / 2;
    EXPECT_FALSE(vc::solve_kvc(s, static_cast<std::int64_t>(need) - 1).feasible)
        << "path " << n;
    auto r = vc::solve_kvc(s, static_cast<std::int64_t>(need));
    EXPECT_TRUE(r.feasible) << "path " << n;
    EXPECT_TRUE(is_cover(s, r.cover));
    EXPECT_LE(r.cover.size(), need);
  }
}

TEST(Kvc, CyclesNeedCeilHalf) {
  for (VertexId n : {3u, 4u, 5u, 6u, 9u}) {
    DenseSubgraph s = induce_all(gen::cycle(n));
    std::size_t need = (n + 1) / 2;
    EXPECT_FALSE(vc::solve_kvc(s, static_cast<std::int64_t>(need) - 1).feasible)
        << "cycle " << n;
    auto r = vc::solve_kvc(s, static_cast<std::int64_t>(need));
    EXPECT_TRUE(r.feasible) << "cycle " << n;
    EXPECT_TRUE(is_cover(s, r.cover));
  }
}

TEST(Kvc, StarNeedsOne) {
  DenseSubgraph s = induce_all(gen::star(10));
  EXPECT_FALSE(vc::solve_kvc(s, 0).feasible);
  auto r = vc::solve_kvc(s, 1);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(is_cover(s, r.cover));
}

TEST(Kvc, CompleteGraphNeedsNMinusOne) {
  for (VertexId n : {3u, 5u, 8u}) {
    DenseSubgraph s = induce_all(gen::complete(n));
    EXPECT_FALSE(
        vc::solve_kvc(s, static_cast<std::int64_t>(n) - 2).feasible);
    auto r = vc::solve_kvc(s, static_cast<std::int64_t>(n) - 1);
    EXPECT_TRUE(r.feasible);
    EXPECT_TRUE(is_cover(s, r.cover));
  }
}

TEST(Kvc, TriangleRuleGraph) {
  // A triangle with pendants exercises the degree-2 adjacent-neighbors rule.
  Graph g = graph_from_edges(5, {{0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 4}});
  DenseSubgraph s = induce_all(g);
  EXPECT_FALSE(vc::solve_kvc(s, 1).feasible);
  auto r = vc::solve_kvc(s, 2);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(is_cover(s, r.cover));
}

/// Checks k = truth - 1 (infeasible) and k = truth (feasible, with a
/// valid cover of size <= k) against the naive minimum `truth`.
void expect_boundary(const DenseSubgraph& s, const std::string& what) {
  std::size_t truth = min_vc_naive(s);
  if (truth > 0) {
    EXPECT_FALSE(
        vc::solve_kvc(s, static_cast<std::int64_t>(truth) - 1).feasible)
        << what;
  }
  auto r = vc::solve_kvc(s, static_cast<std::int64_t>(truth));
  EXPECT_TRUE(r.feasible) << what;
  EXPECT_TRUE(is_cover(s, r.cover)) << what;
  EXPECT_LE(r.cover.size(), truth) << what;
}

TEST(Kvc, MatchesNaiveOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    expect_boundary(induce_all(gen::gnp(12, 0.3, seed)),
                    "gnp seed " + std::to_string(seed));
  }
  // Sparse complements of dense graphs, with and without a planted
  // clique: the shape MC-via-VC hands to the solver.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_boundary(induce_all(gen::gnp(16, 0.8, seed)).complement(),
                    "complement seed " + std::to_string(seed));
    expect_boundary(
        induce_all(gen::plant_clique(gen::gnp(16, 0.6, seed), 8, seed))
            .complement(),
        "planted complement seed " + std::to_string(seed));
  }
}

/// Size of the greedy maximal matching taken in vertex order, each vertex
/// pairing with its first free higher neighbor.
std::size_t greedy_matching_size(const DenseSubgraph& s) {
  std::vector<char> used(s.size(), 0);
  std::size_t matched = 0;
  for (std::size_t v = 0; v < s.size(); ++v) {
    for (std::size_t u = v + 1; u < s.size() && !used[v]; ++u) {
      if (s.adj[v].test(u) && !used[u]) {
        used[v] = used[u] = 1;
        ++matched;
      }
    }
  }
  return matched;
}

TEST(Kvc, LpBoundRefutesWhereMatchingAndCountingCannot) {
  // C7 plus the chords 0-3 and 1-5: irregular (degrees 3,3,2,3,2,3,2),
  // no degree-1 vertex, no degree-2 vertex on a triangle, and no degree
  // above k = 3, so no kernel rule applies.  The counting bound allows
  // 3 * 3 = 9 edges (there are 9) and the greedy maximal matching has
  // 3 edges, so neither refutes k = 3.  The odd cycle is a fractional
  // perfect matching, so the LP bound is 7/2 > 3.
  Graph g = graph_from_edges(7, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
                                 {5, 6}, {6, 0}, {0, 3}, {1, 5}});
  DenseSubgraph s = induce_all(g);
  const std::int64_t k = 3;
  ASSERT_EQ(s.num_edges, 9u);
  std::size_t max_deg = 0;
  for (const DynamicBitset& row : s.adj) {
    max_deg = std::max(max_deg, row.count());
  }
  ASSERT_EQ(max_deg, 3u);
  ASSERT_LE(s.num_edges, static_cast<std::size_t>(k) * max_deg);
  ASSERT_EQ(greedy_matching_size(s), 3u);

  auto r = vc::solve_kvc(s, k);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.nodes, 1u);  // refuted at the root, without branching
  EXPECT_EQ(min_vc_naive(s), 4u);
  auto r4 = vc::solve_kvc(s, 4);
  EXPECT_TRUE(r4.feasible);
  EXPECT_TRUE(is_cover(s, r4.cover));
}

TEST(Kvc, MinimumVertexCoverBinarySearch) {
  for (std::uint64_t seed = 30; seed <= 40; ++seed) {
    Graph g = gen::gnp(14, 0.4, seed);
    DenseSubgraph s = induce_all(g);
    EXPECT_EQ(vc::minimum_vertex_cover(s), min_vc_naive(s)) << "seed " << seed;
  }
}

TEST(Kvc, BussKernelHighDegreeVertex) {
  // Star K1,9 with k=1: the Buss rule must immediately take the hub.
  DenseSubgraph s = induce_all(gen::star(10));
  auto r = vc::solve_kvc(s, 1);
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.cover.size(), 1u);
  EXPECT_EQ(r.cover[0], 0u);  // the hub
  EXPECT_LE(r.nodes, 3u);     // kernelisation, not branching
}

/// Solves every k from n - omega - 2 to n - omega + 1 on the complement
/// of `g` through both solve_kvc overloads: feasible exactly when
/// k >= n - omega (omega from the reference solver), each cover verified,
/// and the scratch overload (root degrees from complement_into, one
/// scratch reused across graphs) identical to the convenience one.
void expect_complement_boundary(const Graph& g, vc::KvcScratch& scratch,
                                const std::string& what) {
  const std::int64_t n = g.num_vertices();
  const std::int64_t omega =
      static_cast<std::int64_t>(baselines::max_clique_reference(g).size());
  DenseSubgraph comp;
  std::vector<VertexId> degrees;
  induce_all(g).complement_into(comp, &degrees);
  for (std::int64_t k = n - omega - 2; k <= n - omega + 1; ++k) {
    const std::string at = what + " k=" + std::to_string(k) +
                           " n-omega=" + std::to_string(n - omega);
    const vc::KvcResult r = vc::solve_kvc(comp, k);
    EXPECT_EQ(r.feasible, k >= n - omega) << at;
    if (r.feasible) {
      EXPECT_TRUE(is_cover(comp, r.cover)) << at;
      EXPECT_LE(static_cast<std::int64_t>(r.cover.size()), k) << at;
    }
    const vc::KvcResult pooled = vc::solve_kvc(comp, degrees, k, {}, scratch);
    EXPECT_EQ(pooled.feasible, r.feasible) << at;
    EXPECT_EQ(pooled.cover, r.cover) << at;
    EXPECT_EQ(pooled.nodes, r.nodes) << at;
    EXPECT_EQ(pooled.reductions, r.reductions) << at;
  }
}

TEST(Kvc, DifferentialAcrossWordBoundaries) {
  // Zone sizes on either side of one and two words, so the kernel's
  // word-at-a-time neighbor reads and the LP's row scans cross a word
  // boundary (or end exactly on one).  Graphs above the default density
  // threshold (0.6), with and without a planted clique, give the sparse
  // complements MC-via-VC solves.
  vc::KvcScratch scratch;
  for (VertexId n : {63u, 64u, 65u, 127u, 128u, 129u}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const std::string what =
          "n=" + std::to_string(n) + " seed " + std::to_string(seed);
      expect_complement_boundary(gen::gnp(n, 0.7, seed), scratch,
                                 "gnp " + what);
      expect_complement_boundary(
          gen::plant_clique(gen::gnp(n, 0.85, seed), n / 3, seed), scratch,
          "planted " + what);
    }
  }
}

TEST(Kvc, KernelCascadeSolvesPathAtTheRoot) {
  // Each degree-1 reduction leaves the next path vertex with degree 1, so
  // the worklist peels the whole path from both ends without branching.
  const VertexId n = 300;
  DenseSubgraph s = induce_all(gen::path(n));
  const auto r = vc::solve_kvc(s, n / 2);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(is_cover(s, r.cover));
  EXPECT_EQ(r.cover.size(), n / 2);
  EXPECT_EQ(r.nodes, 1u);
  EXPECT_EQ(r.reductions, n / 2);
  EXPECT_EQ(r.lp_calls, 0u);  // nothing is left to bound
  const auto short_k = vc::solve_kvc(s, n / 2 - 1);
  EXPECT_FALSE(short_k.feasible);
  EXPECT_EQ(short_k.nodes, 1u);
}

TEST(Kvc, KernelCascadeSolvesCaterpillarAtTheRoot) {
  // A 100-vertex spine with one leaf on each spine vertex: every leaf's
  // degree-1 reduction takes its spine vertex, so the spine is the cover.
  const VertexId spine = 100;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId i = 0; i < spine; ++i) {
    if (i + 1 < spine) edges.emplace_back(i, i + 1);
    edges.emplace_back(i, spine + i);
  }
  DenseSubgraph s = induce_all(graph_from_edges(2 * spine, edges));
  const auto r = vc::solve_kvc(s, spine);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(is_cover(s, r.cover));
  EXPECT_EQ(r.cover.size(), spine);
  EXPECT_EQ(r.nodes, 1u);
  EXPECT_EQ(r.reductions, spine);
  const auto short_k = vc::solve_kvc(s, spine - 1);
  EXPECT_FALSE(short_k.feasible);
  EXPECT_EQ(short_k.nodes, 1u);
}

TEST(Kvc, GenerousKStillProducesValidCover) {
  Graph g = gen::gnp(20, 0.3, 50);
  DenseSubgraph s = induce_all(g);
  auto r = vc::solve_kvc(s, 20);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(is_cover(s, r.cover));
}

TEST(Kvc, CancelledControlReportsCleanly) {
  Graph g = gen::gnp(80, 0.5, 51);
  DenseSubgraph s = induce_all(g);
  SolveControl control;
  control.cancel();
  vc::KvcOptions opt;
  opt.control = &control;
  auto r = vc::solve_kvc(s, 20, opt);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.feasible);
}

}  // namespace
}  // namespace lazymc

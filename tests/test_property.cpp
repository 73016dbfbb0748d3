// Property-based randomized sweeps (parameterized gtest).
//
// Invariants exercised across generator families, densities and seeds:
//  * all exact solvers agree with the reference on omega;
//  * the result is a real clique of the input graph;
//  * omega <= degeneracy + 1;
//  * heuristics never exceed omega;
//  * the intersection kernels agree with naive set intersection under all
//    thresholds.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "baselines/domega.hpp"
#include "baselines/mcbrb.hpp"
#include "baselines/pmc.hpp"
#include "baselines/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "hashset/hopscotch_set.hpp"
#include "intersect/intersect.hpp"
#include "kcore/kcore.hpp"
#include "mc/lazymc.hpp"
#include "support/random.hpp"

namespace lazymc {
namespace {

// ---- solver agreement across the (n, p, seed) grid ------------------------

class SolverGridTest
    : public testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(SolverGridTest, AllSolversMatchReference) {
  auto [n, p, seed] = GetParam();
  Graph g = gen::gnp(static_cast<VertexId>(n), p,
                     static_cast<std::uint64_t>(seed) * 7919 + 13);
  auto ref = baselines::max_clique_reference(g);
  std::size_t omega = ref.size();

  auto lazy = mc::lazy_mc(g);
  EXPECT_EQ(lazy.omega, omega) << "lazymc";
  EXPECT_TRUE(is_clique(g, lazy.clique));

  auto pmc = baselines::pmc_solve(g);
  EXPECT_EQ(pmc.omega, omega) << "pmc";

  auto brb = baselines::mcbrb_solve(g);
  EXPECT_EQ(brb.omega, omega) << "mcbrb";

  auto core = kcore::coreness(g);
  EXPECT_LE(omega, core.degeneracy + 1);
}

INSTANTIATE_TEST_SUITE_P(
    DensitySeedSweep, SolverGridTest,
    testing::Combine(testing::Values(20, 35, 50),
                     testing::Values(0.05, 0.15, 0.35, 0.6),
                     testing::Values(1, 2, 3)));

// ---- planted clique recovery across background families -------------------

enum class Family { kGnp, kBarabasi, kWatts, kPartition };

class PlantedCliqueTest
    : public testing::TestWithParam<std::tuple<Family, int>> {};

TEST_P(PlantedCliqueTest, LazyMCRecoversPlantedClique) {
  auto [family, seed_int] = GetParam();
  std::uint64_t seed = static_cast<std::uint64_t>(seed_int);
  Graph bg;
  switch (family) {
    case Family::kGnp:
      bg = gen::gnp(150, 0.04, seed);
      break;
    case Family::kBarabasi:
      bg = gen::barabasi_albert(150, 4, seed);
      break;
    case Family::kWatts:
      bg = gen::watts_strogatz(150, 6, 0.2, seed);
      break;
    case Family::kPartition:
      bg = gen::planted_partition(6, 25, 0.3, 2.0, seed);
      break;
  }
  std::vector<VertexId> members;
  Graph g = gen::plant_clique(bg, 12, seed + 99, &members);
  auto r = mc::lazy_mc(g);
  EXPECT_GE(r.omega, 12u);
  EXPECT_TRUE(is_clique(g, r.clique));
  EXPECT_LE(r.heuristic_degree_omega, r.omega);
  EXPECT_LE(r.heuristic_coreness_omega, r.omega);
}

INSTANTIATE_TEST_SUITE_P(
    Backgrounds, PlantedCliqueTest,
    testing::Combine(testing::Values(Family::kGnp, Family::kBarabasi,
                                     Family::kWatts, Family::kPartition),
                     testing::Values(5, 6)));

// ---- kcore invariants across graph families --------------------------------

class KCoreInvariantTest : public testing::TestWithParam<int> {};

TEST_P(KCoreInvariantTest, CorenessInvariants) {
  std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Graph g = gen::rmat(8, 6, 0.5, 0.2, 0.2, seed);
  auto core = kcore::coreness(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // coreness <= degree
    EXPECT_LE(core.coreness[v], g.degree(v));
    // every vertex in a k-core has >= k neighbors of coreness >= k
    VertexId k = core.coreness[v];
    VertexId strong = 0;
    for (VertexId u : g.neighbors(v)) strong += core.coreness[u] >= k ? 1 : 0;
    EXPECT_GE(strong, k) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KCoreInvariantTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- intersection kernels vs reference under all thresholds ---------------

class IntersectPropertyTest : public testing::TestWithParam<int> {};

TEST_P(IntersectPropertyTest, KernelsMatchReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  for (int round = 0; round < 50; ++round) {
    std::vector<VertexId> a, b;
    std::size_t na = rng.next_below(40);
    std::size_t nb = 1 + rng.next_below(40);
    for (std::size_t i = 0; i < na; ++i) {
      a.push_back(static_cast<VertexId>(rng.next_below(64)));
    }
    for (std::size_t i = 0; i < nb; ++i) {
      b.push_back(static_cast<VertexId>(rng.next_below(64)));
    }
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    HopscotchSet bs;
    bs.reserve(b.size());
    for (VertexId x : b) bs.insert(x);

    std::size_t truth = intersect_reference(a, b).size();
    std::span<const VertexId> as(a);
    for (std::int64_t theta = -2; theta <= 20; ++theta) {
      bool expect = static_cast<std::int64_t>(truth) > theta;
      EXPECT_EQ(probe_scan<Query::size_gt_bool>(as, bs, nullptr, theta),
                expect);
      EXPECT_EQ((probe_scan<Query::size_gt_bool, Exits::no_second>(
                    as, bs, nullptr, theta)),
                expect);
      int val = probe_scan<Query::size_gt_val>(as, bs, nullptr, theta);
      EXPECT_EQ(val != kTooSmall, expect);
      if (expect) {
        EXPECT_EQ(val, static_cast<int>(truth));
      }
      std::vector<VertexId> out(a.size() + 1);
      int gt = probe_scan<Query::gt>(as, bs, out.data(), theta);
      EXPECT_EQ(gt != kTooSmall, expect);
      if (expect) {
        EXPECT_EQ(gt, static_cast<int>(truth));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntersectPropertyTest,
                         testing::Values(1, 2, 3, 4, 5, 6));

// ---- graph builder round-trip property -------------------------------------

class BuilderPropertyTest : public testing::TestWithParam<int> {};

TEST_P(BuilderPropertyTest, CsrInvariantsHold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 3);
  GraphBuilder builder(30);
  std::set<std::pair<VertexId, VertexId>> truth;
  for (int i = 0; i < 200; ++i) {
    VertexId u = static_cast<VertexId>(rng.next_below(30));
    VertexId v = static_cast<VertexId>(rng.next_below(30));
    builder.add_edge(u, v);
    if (u != v) truth.insert({std::min(u, v), std::max(u, v)});
  }
  Graph g = builder.build();
  EXPECT_EQ(g.num_edges(), truth.size());
  for (VertexId v = 0; v < 30; ++v) {
    auto nbrs = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end());
    for (VertexId u : nbrs) {
      EXPECT_TRUE(truth.count({std::min(u, v), std::max(u, v)}));
      EXPECT_TRUE(g.has_edge(u, v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderPropertyTest,
                         testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace lazymc

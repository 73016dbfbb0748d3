// Cross-module consistency checks between MCE and the MC solvers on suite
// instances, and the report aggregates.  The Fig. 5 ablation toggles are
// checked with the intersection scans (test_intersect.cpp) and the
// dispatcher (test_intersect_bitset.cpp).
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "mc/lazymc.hpp"
#include "mce/mce.hpp"

namespace lazymc {
namespace {

TEST(MceCrossCheck, MaxMaximalEqualsOmegaOnSuiteInstances) {
  for (const char* name : {"CAroad", "dblp", "yahoo", "pokec"}) {
    auto inst = suite::make_instance(name, suite::Scale::kTiny);
    auto mce_r = mce::count_maximal_cliques(inst.graph);
    auto mc_r = mc::lazy_mc(inst.graph);
    EXPECT_EQ(mce_r.max_size, mc_r.omega) << name;
    EXPECT_GT(mce_r.count, 0u) << name;
  }
}

TEST(MceCrossCheck, CliqueCountAtLeastVertexCoverOfEdges) {
  // Every edge lies in some maximal clique, and a maximal clique on k
  // vertices covers C(k,2) edges: count * C(max,2) >= m.
  Graph g = gen::gnp(60, 0.15, 73);
  auto r = mce::count_maximal_cliques(g);
  EXPECT_GE(r.count * (r.max_size * (r.max_size - 1) / 2), g.num_edges());
}

TEST(PhaseTimes, TotalIsSumOfParts) {
  mc::PhaseTimes t;
  t.degree_heuristic = 1;
  t.preprocessing = 2;
  t.must_subgraph = 3;
  t.coreness_heuristic = 4;
  t.systematic = 5;
  EXPECT_DOUBLE_EQ(t.total(), 15.0);
}

TEST(SearchStatsSnapshot, WorkSecondsAggregates) {
  mc::SearchStatsSnapshot s;
  s.filter_seconds = 0.5;
  s.mc_seconds = 0.25;
  s.vc_seconds = 0.25;
  EXPECT_DOUBLE_EQ(s.work_seconds(), 1.0);
}

}  // namespace
}  // namespace lazymc

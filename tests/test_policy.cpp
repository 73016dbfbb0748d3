// Report aggregates: phase times and search-work seconds.  The Fig. 5
// ablation toggles are checked with the intersection scans
// (test_intersect.cpp) and the dispatcher (test_intersect_bitset.cpp).
#include <gtest/gtest.h>

#include "mc/lazymc.hpp"

namespace lazymc {
namespace {

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

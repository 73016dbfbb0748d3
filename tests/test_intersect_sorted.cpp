// Edge cases of the merge scan (early-exit intersection of two sorted
// arrays); the all-kernel differential table is in test_intersect.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "intersect/intersect.hpp"
#include "intersect_fixtures.hpp"
#include "support/random.hpp"

namespace lazymc {
namespace {

TEST(IntersectSortedGt, BasicAboveThreshold) {
  std::vector<VertexId> a{1, 2, 3, 5, 8};
  std::vector<VertexId> b{2, 3, 5, 9};
  std::vector<VertexId> out(5);
  int n = merge_scan<Query::gt>(a, b, out.data(), 2);
  ASSERT_EQ(n, 3);
  out.resize(3);
  EXPECT_EQ(out, (std::vector<VertexId>{2, 3, 5}));
}

TEST(IntersectSortedGt, FailsAtOrBelowThreshold) {
  std::vector<VertexId> a{1, 2, 3, 5, 8};
  std::vector<VertexId> b{2, 3, 5, 9};
  std::vector<VertexId> out(5);
  EXPECT_EQ(merge_scan<Query::gt>(a, b, out.data(), 3), kTooSmall);
  EXPECT_EQ(merge_scan<Query::gt>(a, b, out.data(), 5), kTooSmall);
}

TEST(IntersectSortedGt, SizeGuards) {
  std::vector<VertexId> a{1, 2};
  std::vector<VertexId> big{1, 2, 3, 4, 5, 6};
  std::vector<VertexId> out(6);
  EXPECT_EQ(merge_scan<Query::gt>(a, big, out.data(), 2), kTooSmall);
  EXPECT_EQ(merge_scan<Query::gt>(big, a, out.data(), 2), kTooSmall);
}

TEST(IntersectSortedGt, MatchesReferenceRandomized) {
  Rng rng(41);
  for (int round = 0; round < 400; ++round) {
    auto a = random_zone_set(rng, 30, 0, 50);
    auto b = random_zone_set(rng, 30, 0, 50);
    auto expected = intersect_reference(a, b);
    for (std::int64_t theta = -2; theta <= 12; ++theta) {
      std::vector<VertexId> out(std::max(a.size(), b.size()) + 1);
      int r = merge_scan<Query::gt>(a, b, out.data(), theta);
      if (static_cast<std::int64_t>(expected.size()) > theta) {
        ASSERT_EQ(r, static_cast<int>(expected.size()))
            << "round " << round << " theta " << theta;
        out.resize(expected.size());
        EXPECT_EQ(out, expected);
      } else {
        EXPECT_EQ(r, kTooSmall) << "round " << round << " theta " << theta;
      }
    }
  }
}

TEST(IntersectSortedSizeGtBool, MatchesReferenceRandomized) {
  Rng rng(43);
  for (int round = 0; round < 400; ++round) {
    auto a = random_zone_set(rng, 30, 0, 50);
    auto b = random_zone_set(rng, 30, 0, 50);
    std::size_t truth = intersect_reference(a, b).size();
    for (std::int64_t theta = -2; theta <= 12; ++theta) {
      bool expected = static_cast<std::int64_t>(truth) > theta;
      EXPECT_EQ(merge_scan<Query::size_gt_bool>(a, b, nullptr, theta),
                expected)
          << "round " << round << " theta " << theta;
      EXPECT_EQ((merge_scan<Query::size_gt_bool, Exits::no_second>(
                    a, b, nullptr, theta)),
                expected)
          << "round " << round << " theta " << theta << " (no 2nd exit)";
    }
  }
}

TEST(IntersectSortedSizeGtBool, SecondExitOnIdenticalSets) {
  std::vector<VertexId> a;
  for (VertexId v = 0; v < 2000; ++v) a.push_back(v);
  EXPECT_TRUE(merge_scan<Query::size_gt_bool>(a, a, nullptr, 5));
  EXPECT_TRUE((merge_scan<Query::size_gt_bool, Exits::no_second>(
      a, a, nullptr, 5)));
  EXPECT_FALSE(merge_scan<Query::size_gt_bool>(a, a, nullptr, 2000));
}

TEST(IntersectSortedGt, EmptyInputs) {
  std::vector<VertexId> empty;
  std::vector<VertexId> b{1, 2, 3};
  std::vector<VertexId> out(3);
  EXPECT_EQ(merge_scan<Query::gt>(empty, b, out.data(), 0), kTooSmall);
  // theta = -1: empty intersection (size 0) is still > -1.
  EXPECT_EQ(merge_scan<Query::gt>(empty, b, out.data(), -1), 0);
  EXPECT_TRUE(merge_scan<Query::size_gt_bool>(empty, b, nullptr, -1));
  EXPECT_FALSE(merge_scan<Query::size_gt_bool>(empty, b, nullptr, 0));
}

TEST(IntersectSortedGt, DisjointRangesExitEarly) {
  // a entirely below b: the a-side budget drains immediately.
  std::vector<VertexId> a{1, 2, 3, 4, 5};
  std::vector<VertexId> b{100, 200, 300, 400, 500};
  std::vector<VertexId> out(5);
  EXPECT_EQ(merge_scan<Query::gt>(a, b, out.data(), 0), kTooSmall);
  EXPECT_FALSE(merge_scan<Query::size_gt_bool>(a, b, nullptr, 0));
}

}  // namespace
}  // namespace lazymc

// Tests for the word-packed representations (SparseWordSet, BitsetRow)
// and the adaptive IntersectPolicy dispatch: the same A and B presented
// as a hash set, a sorted array or a bitset row must give the reference
// answers under every toggle setting, and the shape rules must pick the
// expected kernels.  The scans themselves are checked kernel by kernel in
// test_intersect.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hashset/hopscotch_set.hpp"
#include "intersect/intersect.hpp"
#include "intersect_fixtures.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/intersect_policy.hpp"
#include "support/random.hpp"

namespace lazymc {
namespace {

TEST(SparseWordSet, BuildPacksSortedIdsByWord) {
  SparseWordSet a;
  std::vector<VertexId> ids = {100, 101, 163, 164, 300};
  a.build({ids.data(), ids.size()}, 100);
  ASSERT_EQ(a.count(), 5u);
  ASSERT_EQ(a.num_entries(), 3u);  // words 0 (offs 0,1,63), 1 (64), 3 (200)
  EXPECT_EQ(a.indices()[0], 0u);
  EXPECT_EQ(a.bits()[0], (1ULL << 0) | (1ULL << 1) | (1ULL << 63));
  EXPECT_EQ(a.indices()[1], 1u);
  EXPECT_EQ(a.bits()[1], 1ULL << 0);
  EXPECT_EQ(a.indices()[2], 3u);
  EXPECT_EQ(a.bits()[2], 1ULL << 8);
}

TEST(BitsetRow, ContainsClipsToZone) {
  OwnedRow owned({10, 73, 74}, 10, 65);
  const BitsetRow& row = owned.row;
  EXPECT_TRUE(row.contains(10));
  EXPECT_TRUE(row.contains(73));
  EXPECT_TRUE(row.contains(74));
  EXPECT_FALSE(row.contains(11));
  EXPECT_FALSE(row.contains(9));    // below the zone
  EXPECT_FALSE(row.contains(75));   // past the zone
  EXPECT_FALSE(row.contains(200));  // far past the zone
  EXPECT_EQ(row.size(), 3u);
  EXPECT_FALSE(BitsetRow{}.valid());
  EXPECT_TRUE(row.valid());
}

// The adaptive dispatcher must give representation-independent answers:
// the same A and B presented as a hash set, a sorted array, or a bitset
// row (with and without the word form of A) agree with the reference for
// every kernel and θ, and the counters record where each call ran.
TEST(IntersectPolicyDispatch, AllRepresentationsAgree) {
  Rng rng(444);
  const VertexId zone_begin = 5;
  const VertexId zone_bits = 130;
  mc::KernelCounters counters;
  mc::IntersectPolicy policy;
  policy.counters = &counters;
  mc::IntersectPolicy no_second;
  no_second.second_exit = false;
  no_second.counters = &counters;
  mc::IntersectPolicy no_exits;
  no_exits.early_exits = false;
  no_exits.second_exit = false;

  for (int round = 0; round < 120; ++round) {
    auto a = random_zone_set(rng, 30, zone_begin, zone_bits);
    auto b = random_zone_set(rng, 30, zone_begin, zone_bits);
    SparseWordSet aw;
    aw.build({a.data(), a.size()}, zone_begin);
    OwnedRow owned(b, zone_begin, zone_bits);
    HopscotchSet hs = make_set(b);

    NeighborhoodView hash_view(&hs, {});
    NeighborhoodView sorted_view(nullptr, {b.data(), b.size()});
    NeighborhoodView bitset_view(nullptr, {}, owned.row);
    const NeighborhoodView* views[] = {&hash_view, &sorted_view, &bitset_view};

    const auto expected = intersect_reference(a, b);
    const std::int64_t truth = static_cast<std::int64_t>(expected.size());
    std::span<const VertexId> as(a);

    for (std::int64_t theta = -1; theta <= 10; ++theta) {
      for (const NeighborhoodView* view : views) {
        for (const SparseWordSet* words :
             {static_cast<const SparseWordSet*>(nullptr),
              static_cast<const SparseWordSet*>(&aw)}) {
          for (const mc::IntersectPolicy* p :
               {&policy, &no_second, &no_exits}) {
            EXPECT_EQ(p->size_gt_bool(as, *view, theta, words), truth > theta);
            std::vector<VertexId> out(a.size() + 1);
            int g = p->gt(as, *view, out.data(), theta, words);
            if (truth > theta) {
              ASSERT_EQ(g, static_cast<int>(truth));
              out.resize(expected.size());
              std::sort(out.begin(), out.end());
              EXPECT_EQ(out, expected);
            } else {
              EXPECT_EQ(g, kTooSmall);
            }
          }
        }
      }
    }
  }
  // Every representation path was exercised and counted.
  EXPECT_GT(counters.bitset_word.load(), 0u);
  EXPECT_GT(counters.bitset_probe.load(), 0u);
  EXPECT_GT(counters.hash.load() + counters.hash_batched.load(), 0u);
  EXPECT_GT(counters.merge.load() + counters.gallop.load(), 0u);
}

TEST(IntersectPolicyDispatch, ShapeHeuristicsPickExpectedKernels) {
  mc::KernelCounters counters;
  mc::IntersectPolicy policy;
  policy.counters = &counters;

  // Large sorted B vs small A -> binary-search probing ("gallop").
  std::vector<VertexId> big_b;
  for (VertexId v = 0; v < 4096; ++v) big_b.push_back(v * 2);
  std::vector<VertexId> small_a = {4, 8, 600};
  NeighborhoodView big_sorted(nullptr, {big_b.data(), big_b.size()});
  policy.size_gt_bool(small_a, big_sorted, 1);
  EXPECT_EQ(counters.gallop.load(), 1u);
  EXPECT_EQ(counters.merge.load(), 0u);

  // Comparable sorted sizes -> merge.
  std::vector<VertexId> mid_b(big_b.begin(), big_b.begin() + 8);
  NeighborhoodView mid_sorted(nullptr, {mid_b.data(), mid_b.size()});
  policy.size_gt_bool(small_a, mid_sorted, 1);
  EXPECT_EQ(counters.merge.load(), 1u);

  // Hash-backed B: batched when |A| >= kBatchMin, serial below.
  HopscotchSet hs = make_set(big_b);
  NeighborhoodView hashed(&hs, {});
  policy.size_gt_bool(small_a, hashed, 1);
  EXPECT_EQ(counters.hash.load(), 1u);
  std::vector<VertexId> big_a(big_b.begin(), big_b.end());
  policy.size_gt_bool(big_a, hashed, 1);
  EXPECT_EQ(counters.hash_batched.load(), 1u);
}

}  // namespace
}  // namespace lazymc

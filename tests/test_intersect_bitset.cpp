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
#include "kcore/order.hpp"
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

// A CSR view (an adjacency list in shuffled original ids, read through
// the order's maps) takes both CSR paths: the mark scan with the caller's
// ScopedMarks, the gallop without.  Every other round's B is a hub's
// (|B| ~ 65 |A|).  Every query, every exit setting and every θ must match
// the reference; a gt asked while A is marked must still see A's order;
// and the marks must be empty once the ScopedMarks is gone.
TEST(IntersectPolicyDispatch, CsrViewsMatchReference) {
  Rng rng(445);
  constexpr VertexId kUniverse = 400;
  kcore::VertexOrder order;
  order.new_to_orig.resize(kUniverse);
  for (VertexId v = 0; v < kUniverse; ++v) order.new_to_orig[v] = v;
  for (VertexId v = kUniverse; v > 1; --v) {
    std::swap(order.new_to_orig[v - 1],
              order.new_to_orig[static_cast<VertexId>(rng.next_below(v))]);
  }
  order.orig_to_new.resize(kUniverse);
  for (VertexId v = 0; v < kUniverse; ++v) {
    order.orig_to_new[order.new_to_orig[v]] = v;
  }
  mc::KernelCounters counters;
  mc::IntersectPolicy all;
  mc::IntersectPolicy no_second;
  no_second.second_exit = false;
  mc::IntersectPolicy no_exits;
  no_exits.early_exits = false;
  no_exits.second_exit = false;
  IdMarks marks;
  marks.cover(3, kUniverse);  // A's ids start at 3; B's may lie below

  for (int round = 0; round < 160; ++round) {
    const bool hub = round % 2 == 1;
    auto a = random_zone_set(rng, hub ? 6 : 40, 3, kUniverse - 3);
    auto b = random_zone_set(rng, hub ? 390 : 40, 0, kUniverse);
    std::vector<VertexId> csr;
    for (VertexId x : b) csr.push_back(order.new_to_orig[x]);
    std::sort(csr.begin(), csr.end());
    const NeighborhoodView view(csr, order);
    ASSERT_TRUE(view.is_csr());
    const auto expected = intersect_reference(a, b);
    const auto truth = static_cast<std::int64_t>(expected.size());
    std::span<const VertexId> as(a);
    for (mc::IntersectPolicy* p : {&all, &no_second, &no_exits}) {
      p->counters = &counters;
      for (const bool with_marks : {true, false}) {
        for (std::int64_t theta = -1;
             theta <= static_cast<std::int64_t>(a.size()) + 1; ++theta) {
          std::vector<VertexId> out(a.size() + 1);
          int g = 0;
          {
            ScopedMarks scoped(marks, as);
            ScopedMarks* m = with_marks ? &scoped : nullptr;
            EXPECT_EQ(p->size_gt_bool(as, view, theta, nullptr, m),
                      truth > theta);
            EXPECT_EQ(p->query<Query::size_gt_val>(as, view, nullptr, theta,
                                                   nullptr, m),
                      truth > theta ? static_cast<int>(truth) : kTooSmall);
            g = p->gt(as, view, out.data(), theta, nullptr, m);
          }
          ASSERT_TRUE(marks.empty());
          if (truth > theta) {
            ASSERT_EQ(g, static_cast<int>(truth));
            EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                                   out.begin()));  // A's order
          } else {
            EXPECT_EQ(g, kTooSmall);
          }
        }
      }
    }
  }
  EXPECT_GT(counters.csr_scan.load(), 0u);
  EXPECT_GT(counters.gallop.load(), 0u);
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

  // CSR view (identity order): csr-scan with marks, whatever |B| (a hub
  // is the lazy graph's call), gallop without marks.
  kcore::VertexOrder order;
  for (VertexId v = 0; v < 8192; ++v) {
    order.new_to_orig.push_back(v);
    order.orig_to_new.push_back(v);
  }
  IdMarks marks;
  marks.cover(0, 8192);
  NeighborhoodView mid_csr(mid_b, order);
  NeighborhoodView hub_csr(big_b, order);
  {
    ScopedMarks a_marks(marks, small_a);
    policy.size_gt_bool(small_a, mid_csr, 1, nullptr, &a_marks);
    EXPECT_EQ(counters.csr_scan.load(), 1u);
    policy.size_gt_bool(small_a, hub_csr, 1, nullptr, &a_marks);
    EXPECT_EQ(counters.csr_scan.load(), 2u);
    EXPECT_FALSE(marks.empty());
  }
  EXPECT_TRUE(marks.empty());
  policy.size_gt_bool(small_a, mid_csr, 1);
  EXPECT_EQ(counters.gallop.load(), 2u);
}

}  // namespace
}  // namespace lazymc

// Property tests for the word-parallel intersection engine: BitsetRow /
// SparseWordSet kernels, prefetched batch hash probes, and the adaptive
// IntersectPolicy dispatch — every (representation x kernel x θ)
// combination is checked against intersect_reference, including θ = -1,
// θ >= min(|A|,|B|), empty sides, and word-boundary sizes (63/64/65).
//
// Two suites pin the word-parallel kernels on multi-word rows: results
// at 255/256/257 and 511/512/513 zone bits, and the miss-budget exit
// tripping at every word of a 16-word A.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hashset/hopscotch_set.hpp"
#include "intersect/intersect.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/intersect_policy.hpp"
#include "support/random.hpp"

namespace lazymc {
namespace {

/// Owning helper: packs `elements` (ids >= zone_begin) into row words.
struct OwnedRow {
  std::vector<std::uint64_t> words;
  BitsetRow row;

  OwnedRow(const std::vector<VertexId>& elements, VertexId zone_begin,
           VertexId zone_bits) {
    words.assign((static_cast<std::size_t>(zone_bits) + 63) / 64, 0);
    std::uint32_t count = 0;
    for (VertexId v : elements) {
      const VertexId off = v - zone_begin;
      words[off >> 6] |= 1ULL << (off & 63);
      ++count;
    }
    row = BitsetRow{words.data(), zone_begin, zone_bits, count};
  }
};

std::vector<VertexId> random_zone_set(Rng& rng, std::size_t max_size,
                                      VertexId zone_begin,
                                      VertexId zone_bits) {
  std::vector<VertexId> v;
  const std::size_t size = rng.next_below(max_size + 1);
  for (std::size_t i = 0; i < size; ++i) {
    v.push_back(zone_begin + static_cast<VertexId>(rng.next_below(zone_bits)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

HopscotchSet make_set(const std::vector<VertexId>& v) {
  HopscotchSet s(v.size());
  for (VertexId x : v) s.insert(x);
  return s;
}

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

// All word-parallel kernels against intersect_reference, across zone
// offsets, word-boundary zone sizes, and the full θ sweep.
TEST(BitsetKernels, MatchReferenceExhaustively) {
  Rng rng(111);
  for (VertexId zone_begin : {VertexId{0}, VertexId{7}, VertexId{64}}) {
    for (VertexId zone_bits : {VertexId{63}, VertexId{64}, VertexId{65},
                               VertexId{200}}) {
      for (int round = 0; round < 60; ++round) {
        auto a = random_zone_set(rng, 40, zone_begin, zone_bits);
        auto b = random_zone_set(rng, 40, zone_begin, zone_bits);
        SparseWordSet aw;
        aw.build({a.data(), a.size()}, zone_begin);
        OwnedRow owned(b, zone_begin, zone_bits);
        const BitsetRow& row = owned.row;
        const auto expected = intersect_reference(a, b);
        const std::int64_t truth = static_cast<std::int64_t>(expected.size());
        EXPECT_EQ(intersect_size(aw, row), expected.size());

        const std::int64_t max_theta = static_cast<std::int64_t>(
            std::min(a.size(), b.size()) + 2);
        for (std::int64_t theta = -1; theta <= max_theta; ++theta) {
          const bool above = truth > theta;
          EXPECT_EQ(intersect_size_gt_bool(aw, row, theta, true), above)
              << "zb=" << zone_begin << " bits=" << zone_bits
              << " theta=" << theta;
          EXPECT_EQ(intersect_size_gt_bool(aw, row, theta, false), above);
          int v = intersect_size_gt_val(aw, row, theta);
          EXPECT_EQ(v, above ? static_cast<int>(truth) : kTooSmall);

          std::vector<VertexId> out(a.size() + 1);
          int g = intersect_gt(aw, row, out.data(), theta);
          if (above) {
            ASSERT_EQ(g, static_cast<int>(truth));
            out.resize(expected.size());
            EXPECT_EQ(out, expected);  // ascending, like the scalar kernel
          } else {
            EXPECT_EQ(g, kTooSmall);
          }
        }
      }
    }
  }
}

TEST(BitsetKernels, EmptySides) {
  SparseWordSet empty_a;
  empty_a.build({}, 0);
  OwnedRow b({1, 2, 3}, 0, 64);
  EXPECT_FALSE(intersect_size_gt_bool(empty_a, b.row, 0));
  EXPECT_TRUE(intersect_size_gt_bool(empty_a, b.row, -1));  // 0 > -1
  EXPECT_EQ(intersect_size_gt_val(empty_a, b.row, 0), kTooSmall);

  std::vector<VertexId> a = {1, 2, 3};
  SparseWordSet aw;
  aw.build({a.data(), a.size()}, 0);
  OwnedRow empty_b({}, 0, 64);
  EXPECT_FALSE(intersect_size_gt_bool(aw, empty_b.row, 0));
  EXPECT_EQ(intersect_size_gt_val(aw, empty_b.row, 0), kTooSmall);
  std::vector<VertexId> out(4);
  EXPECT_EQ(intersect_gt(aw, empty_b.row, out.data(), 0), kTooSmall);
  EXPECT_EQ(intersect_gt(aw, empty_b.row, out.data(), -1), 0);
}

// The kernels must match the reference on rows of 4, 5, 8 and 9 words,
// with partially filled last words on either side of a full one, for
// every θ from -1 past min(|A|, |B|).
TEST(BitsetKernels, MatchReferenceOnMultiWordRows) {
  Rng rng(1000);
  for (VertexId zone_begin : {VertexId{0}, VertexId{7}}) {
    for (VertexId zone_bits :
         {VertexId{255}, VertexId{256}, VertexId{257}, VertexId{511},
          VertexId{512}, VertexId{513}}) {
      for (int round = 0; round < 25; ++round) {
        auto a = random_zone_set(rng, 160, zone_begin, zone_bits);
        auto b = random_zone_set(rng, 160, zone_begin, zone_bits);
        SparseWordSet aw;
        aw.build({a.data(), a.size()}, zone_begin);
        OwnedRow owned(b, zone_begin, zone_bits);
        const BitsetRow& row = owned.row;
        const auto expected = intersect_reference(a, b);
        const std::int64_t truth =
            static_cast<std::int64_t>(expected.size());
        EXPECT_EQ(intersect_size(aw, row), expected.size());
        std::vector<VertexId> out(a.size() + 1);
        EXPECT_EQ(intersect_words(aw, row, out.data()), expected.size());

        const std::int64_t max_theta =
            static_cast<std::int64_t>(std::min(a.size(), b.size()) + 2);
        for (std::int64_t theta = -1; theta <= max_theta; ++theta) {
          const bool above = truth > theta;
          EXPECT_EQ(intersect_size_gt_bool(aw, row, theta, true), above)
              << "bits=" << zone_bits << " theta=" << theta;
          EXPECT_EQ(intersect_size_gt_bool(aw, row, theta, false), above);
          EXPECT_EQ(intersect_size_gt_val(aw, row, theta),
                    above ? static_cast<int>(truth) : kTooSmall);
          int g = intersect_gt(aw, row, out.data(), theta);
          if (above) {
            ASSERT_EQ(g, static_cast<int>(truth));
            EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                                   out.begin()));
          } else {
            EXPECT_EQ(g, kTooSmall);
          }
        }
      }
    }
  }
}

// Budget exits at a controlled word: A occupies 16 full words (1024
// elements), B keeps only words [0, keep) of A, so the miss budget
// h = |A| - θ runs dry at a chosen word position.  The verdict must not
// depend on where the exit fires; this test pins that for every θ regime
// and exit word.
TEST(BitsetKernels, BudgetExitAtEveryWord) {
  constexpr VertexId kZoneBits = 1024;  // 16 words, all occupied by A
  std::vector<VertexId> a(kZoneBits);
  for (VertexId v = 0; v < kZoneBits; ++v) a[v] = v;
  SparseWordSet aw;
  aw.build({a.data(), a.size()}, 0);
  ASSERT_EQ(aw.num_entries(), 16u);

  for (std::size_t keep = 0; keep <= 16; ++keep) {
    std::vector<VertexId> b;
    for (VertexId v = 0; v < static_cast<VertexId>(keep * 64); ++v) {
      b.push_back(v);
    }
    OwnedRow owned(b, 0, kZoneBits);
    const std::int64_t truth = static_cast<std::int64_t>(b.size());
    // Thetas chosen so the failure exit fires after ~1, ~keep/2, ~keep
    // and ~16 words.
    for (std::int64_t theta :
         {std::int64_t{-1}, std::int64_t{0}, truth - 65, truth - 1, truth,
          truth + 1, truth + 63, std::int64_t{1023}}) {
      const bool above = truth > theta;
      EXPECT_EQ(intersect_size_gt_bool(aw, owned.row, theta, true), above)
          << "keep=" << keep << " theta=" << theta;
      EXPECT_EQ(intersect_size_gt_bool(aw, owned.row, theta, false), above);
      EXPECT_EQ(intersect_size_gt_val(aw, owned.row, theta),
                above ? static_cast<int>(truth) : kTooSmall);
      std::vector<VertexId> out(a.size() + 1);
      int g = intersect_gt(aw, owned.row, out.data(), theta);
      if (above) {
        ASSERT_EQ(g, static_cast<int>(truth));
        EXPECT_TRUE(std::equal(b.begin(), b.end(), out.begin()));
      } else {
        EXPECT_EQ(g, kTooSmall);
      }
    }
  }
}

// Prefetched batch probes must be bit-identical to the scalar hash
// kernels for every θ, including sizes around the lookahead and word
// boundaries (63/64/65) and empty inputs.
TEST(PrefetchKernels, MatchScalarHashKernels) {
  Rng rng(222);
  for (std::size_t na : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                         std::size_t{63}, std::size_t{64}, std::size_t{65},
                         std::size_t{200}}) {
    for (int round = 0; round < 20; ++round) {
      std::vector<VertexId> a, b;
      for (std::size_t i = 0; i < na; ++i) {
        a.push_back(static_cast<VertexId>(rng.next_below(300)));
      }
      std::size_t nb = rng.next_below(120);
      for (std::size_t i = 0; i < nb; ++i) {
        b.push_back(static_cast<VertexId>(rng.next_below(300)));
      }
      std::sort(a.begin(), a.end());
      a.erase(std::unique(a.begin(), a.end()), a.end());
      HopscotchSet bs = make_set(b);
      std::span<const VertexId> as(a);

      EXPECT_EQ(intersect_size_prefetch(as, bs), intersect_size(as, bs));
      const std::int64_t max_theta =
          static_cast<std::int64_t>(std::min(a.size(), bs.size()) + 2);
      for (std::int64_t theta = -1; theta <= max_theta; ++theta) {
        EXPECT_EQ(intersect_size_gt_bool_prefetch(as, bs, theta, true),
                  intersect_size_gt_bool(as, bs, theta, true));
        EXPECT_EQ(intersect_size_gt_bool_prefetch(as, bs, theta, false),
                  intersect_size_gt_bool(as, bs, theta, false));
        EXPECT_EQ(intersect_size_gt_val_prefetch(as, bs, theta),
                  intersect_size_gt_val(as, bs, theta));
        std::vector<VertexId> out1(a.size() + 1), out2(a.size() + 1);
        int r1 = intersect_gt_prefetch(as, bs, out1.data(), theta);
        int r2 = intersect_gt(as, bs, out2.data(), theta);
        EXPECT_EQ(r1, r2);
        if (r1 != kTooSmall) {
          out1.resize(static_cast<std::size_t>(r1));
          out2.resize(static_cast<std::size_t>(r2));
          EXPECT_EQ(out1, out2);
        }
      }
    }
  }
}

TEST(SortedKernels, SizeGtValMatchesReference) {
  Rng rng(333);
  for (int round = 0; round < 200; ++round) {
    std::vector<VertexId> a, b;
    std::size_t na = rng.next_below(40);
    std::size_t nb = rng.next_below(40);
    for (std::size_t i = 0; i < na; ++i) {
      a.push_back(static_cast<VertexId>(rng.next_below(70)));
    }
    for (std::size_t i = 0; i < nb; ++i) {
      b.push_back(static_cast<VertexId>(rng.next_below(70)));
    }
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    const std::int64_t truth =
        static_cast<std::int64_t>(intersect_reference(a, b).size());
    EXPECT_EQ(intersect_sorted_size(a, b), static_cast<std::size_t>(truth));
    for (std::int64_t theta = -1; theta <= 12; ++theta) {
      int r = intersect_sorted_size_gt_val(a, b, theta);
      EXPECT_EQ(r, truth > theta ? static_cast<int>(truth) : kTooSmall)
          << "theta=" << theta;
    }
  }
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
          for (const mc::IntersectPolicy* p : {&policy, &no_exits}) {
            EXPECT_EQ(p->size_gt_bool(as, *view, theta, words), truth > theta);
            EXPECT_EQ(p->size_gt_val(as, *view, theta, words),
                      truth > theta ? static_cast<int>(truth) : kTooSmall);
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

  // Hash-backed B: batched when |A| >= batch_min, serial below.
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

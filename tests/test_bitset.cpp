// Tests for DynamicBitset, the adjacency-row representation of dense
// subproblems, and the parallel-bit-extract primitive that fills its rows.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "support/bitset.hpp"
#include "support/random.hpp"
#include "support/wordops.hpp"

namespace lazymc {
namespace {

TEST(DynamicBitset, StartsEmpty) {
  DynamicBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_FALSE(b.any());
  EXPECT_TRUE(b.none());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.test(i));
}

TEST(DynamicBitset, SetResetTest) {
  DynamicBitset b(130);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(DynamicBitset, CountAndMatchesManual) {
  Rng rng(5);
  DynamicBitset a(200), b(200);
  std::set<std::size_t> sa, sb;
  for (int i = 0; i < 80; ++i) {
    std::size_t x = rng.next_below(200);
    a.set(x);
    sa.insert(x);
    std::size_t y = rng.next_below(200);
    b.set(y);
    sb.insert(y);
  }
  std::size_t expected = 0;
  for (std::size_t x : sa) expected += sb.count(x);
  EXPECT_EQ(a.count_and(b), expected);
  EXPECT_EQ(b.count_and(a), expected);
}

TEST(DynamicBitset, AndWith) {
  DynamicBitset a(70), b(70);
  a.set(1);
  a.set(10);
  a.set(65);
  b.set(10);
  b.set(65);
  b.set(3);
  a.and_with(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_TRUE(a.test(10));
  EXPECT_TRUE(a.test(65));
  EXPECT_FALSE(a.test(1));
}

TEST(DynamicBitset, AssignAnd) {
  DynamicBitset a(70), b(70), c;
  a.set(5);
  a.set(69);
  b.set(69);
  c.assign_and(a, b);
  EXPECT_EQ(c.size(), 70u);
  EXPECT_EQ(c.count(), 1u);
  EXPECT_TRUE(c.test(69));
}

TEST(DynamicBitset, AndNotWith) {
  DynamicBitset a(40), b(40);
  a.set(1);
  a.set(2);
  a.set(3);
  b.set(2);
  a.and_not_with(b);
  EXPECT_TRUE(a.test(1));
  EXPECT_FALSE(a.test(2));
  EXPECT_TRUE(a.test(3));
}

TEST(DynamicBitset, FindFirstAndNext) {
  DynamicBitset b(200);
  EXPECT_EQ(b.find_first(), 200u);
  b.set(17);
  b.set(64);
  b.set(199);
  EXPECT_EQ(b.find_first(), 17u);
  EXPECT_EQ(b.find_next(17), 64u);
  EXPECT_EQ(b.find_next(64), 199u);
  EXPECT_EQ(b.find_next(199), 200u);
  EXPECT_EQ(b.find_next(0), 17u);
}

TEST(DynamicBitset, ForEachVisitsAscending) {
  DynamicBitset b(300);
  std::vector<std::size_t> expected{0, 7, 63, 64, 128, 255, 299};
  for (auto i : expected) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(DynamicBitset, IterationMatchesTestExhaustively) {
  Rng rng(99);
  DynamicBitset b(517);
  std::set<std::size_t> expected;
  for (int i = 0; i < 200; ++i) {
    std::size_t x = rng.next_below(517);
    b.set(x);
    expected.insert(x);
  }
  // via find_first/find_next
  std::set<std::size_t> seen;
  for (std::size_t i = b.find_first(); i < b.size(); i = b.find_next(i)) {
    seen.insert(i);
  }
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(b.count(), expected.size());
}

TEST(DynamicBitset, ClearEmpties) {
  DynamicBitset b(100);
  b.set(5);
  b.set(99);
  b.clear();
  EXPECT_EQ(b.count(), 0u);
  EXPECT_FALSE(b.any());
}

TEST(DynamicBitset, EqualityComparesContent) {
  DynamicBitset a(64), b(64);
  EXPECT_EQ(a, b);
  a.set(10);
  EXPECT_NE(a, b);
  b.set(10);
  EXPECT_EQ(a, b);
}

TEST(DynamicBitset, WordStorageIsCacheLineAligned) {
  // Every row starts on a 64-byte boundary, matching the lazy graph's
  // row block.
  for (std::size_t bits : {1u, 64u, 100u, 1000u}) {
    DynamicBitset b(bits);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % 64, 0u) << bits;
  }
}

// The bulk word ops must agree bit-for-bit with a naive model at every
// size, from empty through 80 words, with whole-word and partial tails.
TEST(DynamicBitset, BulkOpsAgreeWithNaiveModel) {
  Rng rng(77);
  // 0, 1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 79
  // and 80 full words, plus partial last words around 1, 4 and 8 words.
  for (std::size_t bits :
       {0u,    1u,    63u,   64u,   65u,   192u,  255u,  256u,  257u,
        320u,  511u,  512u,  513u,  960u,  1000u, 1024u, 1088u, 1984u,
        2048u, 2112u, 3008u, 3072u, 3136u, 4032u, 4096u, 4160u, 5056u,
        5120u}) {
    DynamicBitset a(bits), b(bits);
    std::set<std::size_t> in_a, in_b;
    for (std::size_t i = 0; i < bits; ++i) {
      // Word 3 is saturated in both operands.
      const bool full = i / 64 == 3;
      if (full || rng.next_below(2)) { a.set(i); in_a.insert(i); }
      if (full || rng.next_below(2)) { b.set(i); in_b.insert(i); }
    }
    EXPECT_EQ(a.count(), in_a.size()) << bits;
    std::set<std::size_t> both;
    for (std::size_t i : in_a) {
      if (in_b.count(i)) both.insert(i);
    }
    EXPECT_EQ(a.count_and(b), both.size()) << bits;

    DynamicBitset and_dst;
    and_dst.assign_and(a, b);
    DynamicBitset and_with_dst = a;
    and_with_dst.and_with(b);
    DynamicBitset and_not_dst = a;
    and_not_dst.and_not_with(b);
    for (std::size_t i = 0; i < bits; ++i) {
      EXPECT_EQ(and_dst.test(i), both.count(i) > 0);
      EXPECT_EQ(and_with_dst.test(i), both.count(i) > 0);
      EXPECT_EQ(and_not_dst.test(i), in_a.count(i) > 0 && !in_b.count(i));
    }
  }
}

// ---- parallel bit extract (wordops::pext_* / compress_or) -----------------

std::uint64_t pext_reference(std::uint64_t src, std::uint64_t mask) {
  std::uint64_t out = 0;
  unsigned k = 0;
  for (unsigned b = 0; b < 64; ++b) {
    if ((mask >> b) & 1) {
      out |= ((src >> b) & 1) << k;
      ++k;
    }
  }
  return out;
}

void expect_pext(std::uint64_t src, std::uint64_t mask) {
  const std::uint64_t want = pext_reference(src, mask);
  EXPECT_EQ(wordops::pext_portable(src, mask), want) << src << " " << mask;
#if defined(__x86_64__)
  if (wordops::cpu_has_bmi2()) {
    EXPECT_EQ(wordops::pext_bmi2(src, mask), want) << src << " " << mask;
  }
#endif
}

TEST(Pext, BothImplementationsMatchReference) {
  Rng rng(2024);
  std::vector<std::uint64_t> masks = {0, ~0ULL, 1ULL << 63,
                                      0x8000000000000001ULL,
                                      0x5555555555555555ULL};
  for (unsigned b = 0; b < 64; ++b) masks.push_back(1ULL << b);
  for (int i = 0; i < 200; ++i) masks.push_back(rng());
  for (std::uint64_t mask : masks) {
    expect_pext(0, mask);  // the all-zero hit word
    expect_pext(~0ULL, mask);
    expect_pext(mask, mask);
    for (int i = 0; i < 20; ++i) {
      expect_pext(rng(), mask);
      expect_pext(rng() & mask, mask);
    }
  }
}

TEST(Pext, CompressOrPlacesEachWordAtItsOffset) {
  // Words of a sparse set A starting at a ragged bit offset, so
  // compressed words straddle two destination words (and some start
  // exactly on a word boundary); hits are random subsets, empty ones too.
  Rng rng(99);
  for (std::uint32_t start : {0u, 1u, 5u, 63u, 64u, 100u}) {
    std::vector<std::uint64_t> mask, hit;
    std::vector<std::uint32_t> offset;
    std::uint32_t bits = start;
    for (int k = 0; k < 40; ++k) {
      std::uint64_t m = rng();
      if (k % 7 == 0) m = ~0ULL;
      if (k % 5 == 0) m = 1ULL << rng.next_below(64);
      if (m == 0) m = 1;
      mask.push_back(m);
      hit.push_back(k % 3 == 0 ? 0 : rng() & m);
      offset.push_back(bits);
      bits += static_cast<std::uint32_t>(std::popcount(m));
    }
    std::vector<std::uint64_t> dst((bits + 63) / 64, 0);
    const std::size_t total = wordops::compress_or(
        dst.data(), hit.data(), mask.data(), offset.data(), mask.size());
    std::vector<std::uint64_t> want(dst.size(), 0);
    std::size_t want_total = 0;
    for (std::size_t k = 0; k < mask.size(); ++k) {
      const std::uint64_t c = pext_reference(hit[k], mask[k]);
      for (unsigned b = 0; b < 64; ++b) {
        if ((c >> b) & 1) {
          const std::size_t pos = offset[k] + b;
          want[pos >> 6] |= 1ULL << (pos & 63);
          ++want_total;
        }
      }
    }
    EXPECT_EQ(dst, want) << "start " << start;
    EXPECT_EQ(total, want_total) << "start " << start;
  }
}

}  // namespace
}  // namespace lazymc

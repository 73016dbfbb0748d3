// Dynamic bitset used as adjacency-matrix rows by the dense branch-and-bound
// solvers (mc::BBSolver, vc::KvcSolver).  Subproblems handed to those
// solvers are small (bounded by coreness), so a flat 64-bit-word bitset with
// popcount-based intersection is the fastest representation.
//
// Word storage is 64-byte aligned (AlignedWords), so every row starts on
// a cache-line boundary like the lazy-graph row arena; the bulk word ops
// (count/count_and/and_with/...) are the support/wordops.hpp loops.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "support/aligned.hpp"
#include "support/check.hpp"

namespace lazymc {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  std::size_t size() const { return bits_; }
  std::size_t num_words() const { return words_.size(); }

  /// Re-initializes to `bits` zero bits, reusing the existing word storage
  /// when capacity allows.  Lets scratch-arena owners (SearchScratch)
  /// recycle bitsets across subproblems without per-probe heap traffic.
  void reinit(std::size_t bits) {
    bits_ = bits;
    words_.assign((bits + 63) / 64, 0);
  }

  void set(std::size_t i) {
    LAZYMC_ASSERT(i < bits_, "DynamicBitset::set out of bounds");
    words_[i >> 6] |= 1ULL << (i & 63);
  }
  void reset(std::size_t i) {
    LAZYMC_ASSERT(i < bits_, "DynamicBitset::reset out of bounds");
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }
  bool test(std::size_t i) const {
    LAZYMC_ASSERT(i < bits_, "DynamicBitset::test out of bounds");
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void clear() { std::fill(words_.begin(), words_.end(), 0); }

  /// Number of set bits.
  std::size_t count() const;

  /// Number of set bits in (this AND other).  Sizes must match.
  std::size_t count_and(const DynamicBitset& other) const;

  /// this &= other.
  void and_with(const DynamicBitset& other);

  /// this = a & b (resizes to a's size).
  void assign_and(const DynamicBitset& a, const DynamicBitset& b);

  /// this &= ~other.
  void and_not_with(const DynamicBitset& other);

  /// Index of lowest set bit, or size() when empty.
  std::size_t find_first() const;

  /// Index of next set bit strictly after `i`, or size() when none.
  std::size_t find_next(std::size_t i) const;

  bool any() const;
  bool none() const { return !any(); }

  /// Calls fn(i) for every set bit i in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word) {
        unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
        fn(w * 64 + bit);
        word &= word - 1;
      }
    }
  }

  std::uint64_t word(std::size_t w) const { return words_[w]; }
  std::uint64_t& word(std::size_t w) { return words_[w]; }

  /// Raw word storage (64-byte aligned); for the wordops primitives.
  const std::uint64_t* data() const { return words_.data(); }
  std::uint64_t* data() { return words_.data(); }

  bool operator==(const DynamicBitset& other) const = default;

 private:
  std::size_t bits_ = 0;
  AlignedWords words_;
};

}  // namespace lazymc

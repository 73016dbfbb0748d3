#include "support/bitset.hpp"

#include <algorithm>

#include "support/wordops.hpp"

namespace lazymc {

std::size_t DynamicBitset::count() const {
  return wordops::popcount(words_.data(), words_.size());
}

std::size_t DynamicBitset::count_and(const DynamicBitset& other) const {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  return wordops::popcount_and(words_.data(), other.words_.data(), n);
}

void DynamicBitset::and_with(const DynamicBitset& other) {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  wordops::and_assign(words_.data(), other.words_.data(), n);
  for (std::size_t i = n; i < words_.size(); ++i) words_[i] = 0;
}

void DynamicBitset::assign_and(const DynamicBitset& a, const DynamicBitset& b) {
  bits_ = a.bits_;
  words_.resize(a.words_.size());
  const std::size_t n = std::min(a.words_.size(), b.words_.size());
  wordops::and_into(words_.data(), a.words_.data(), b.words_.data(), n);
  for (std::size_t i = n; i < words_.size(); ++i) words_[i] = 0;
}

void DynamicBitset::and_not_with(const DynamicBitset& other) {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  wordops::and_not_assign(words_.data(), other.words_.data(), n);
}

std::size_t DynamicBitset::find_first() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w]) return w * 64 + static_cast<unsigned>(__builtin_ctzll(words_[w]));
  }
  return bits_;
}

std::size_t DynamicBitset::find_next(std::size_t i) const {
  ++i;
  if (i >= bits_) return bits_;
  std::size_t w = i >> 6;
  std::uint64_t word = words_[w] & (~0ULL << (i & 63));
  for (;;) {
    if (word) return w * 64 + static_cast<unsigned>(__builtin_ctzll(word));
    if (++w >= words_.size()) return bits_;
    word = words_[w];
  }
}

bool DynamicBitset::any() const {
  for (std::uint64_t w : words_) {
    if (w) return true;
  }
  return false;
}

}  // namespace lazymc

// Hopscotch hash set of vertex ids (Herlihy, Shavit & Tzafrir, DISC'08).
//
// Configuration follows the paper's Section V: the neighborhood (hop
// range) H is 16 — one 64-byte cache line of 4-byte vertex ids — and
// membership within a neighborhood is tracked with a per-bucket bitmask
// rather than deltas.  `contains` therefore touches at most two cache
// lines: the home bucket's bitmask word and the candidate slots.
//
// The set is built once (by the lazy graph, filtered at construction time)
// and then read concurrently without synchronization; inserts are not
// thread-safe and happen only while the owning vertex's lock is held
// (Algorithm 2's double-checked locking).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace lazymc {

class HopscotchSet {
 public:
  /// Hop range: one cache line of 16 4-byte ids.
  static constexpr std::size_t kHopRange = 16;

  HopscotchSet() = default;

  /// Reserves capacity for `expected` elements (Algorithm 2 line 17
  /// reserves |N(v)| up front, so rehashes are rare).
  explicit HopscotchSet(std::size_t expected) { reserve(expected); }

  /// Re-initializes to an empty set with room for `expected` elements.
  void reserve(std::size_t expected);

  /// Inserts v.  Returns false if already present.  Not thread-safe.
  bool insert(VertexId v);

  /// Membership test.  Safe for concurrent readers once building is done.
  bool contains(VertexId v) const {
    if (buckets_.empty()) return false;
    std::size_t home = index_of(v);
    std::uint32_t mask = hop_mask_[home];
    while (mask) {
      unsigned bit = static_cast<unsigned>(__builtin_ctz(mask));
      if (buckets_[wrap(home + bit)] == v) return true;
      mask &= mask - 1;
    }
    return false;
  }

  /// Home bucket index of v (hash only; no memory touched).  The batch
  /// kernels compute this once per key, prefetch with it, then probe with
  /// contains_at — a serial contains() would hash the key a second time.
  std::size_t home_of(VertexId v) const {
    return buckets_.empty() ? 0 : index_of(v);
  }

  /// Requests the home bucket's bitmask and slot cache lines ahead of a
  /// future contains_at(home, v) — the batch-probe kernel (ProbeRing in
  /// intersect/intersect.hpp) issues this kProbeLookahead iterations early so
  /// consecutive probe misses overlap in the memory system.
  void prefetch_home(std::size_t home) const {
    if (buckets_.empty()) return;
    __builtin_prefetch(hop_mask_.data() + home, /*rw=*/0, /*locality=*/1);
    __builtin_prefetch(buckets_.data() + home, /*rw=*/0, /*locality=*/1);
  }

  /// Convenience: hash-and-prefetch in one call.
  void prefetch(VertexId v) const { prefetch_home(home_of(v)); }

  /// Membership test with a precomputed home index (== home_of(v)).
  bool contains_at(std::size_t home, VertexId v) const {
    if (buckets_.empty()) return false;
    std::uint32_t mask = hop_mask_[home];
    while (mask) {
      unsigned bit = static_cast<unsigned>(__builtin_ctz(mask));
      if (buckets_[wrap(home + bit)] == v) return true;
      mask &= mask - 1;
    }
    return false;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return buckets_.size(); }

  /// Iterates all elements (unspecified order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] != kEmpty) fn(buckets_[i]);
    }
  }

  /// Elements as a sorted vector (test/debug convenience).
  std::vector<VertexId> to_sorted_vector() const;

 private:
  static constexpr VertexId kEmpty = kInvalidVertex;

  std::size_t index_of(VertexId v) const {
    // Fibonacci (multiplicative) hashing; table size is a power of two.
    std::uint64_t h = static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> shift_);
  }

  std::size_t wrap(std::size_t i) const { return i & (buckets_.size() - 1); }

  void grow_and_rehash();
  bool try_insert(VertexId v);

  std::vector<VertexId> buckets_;      // slot contents (kEmpty = free)
  std::vector<std::uint32_t> hop_mask_;  // bit b: home+b holds one of ours
  std::size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(capacity)
};

}  // namespace lazymc

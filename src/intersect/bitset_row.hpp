// Word-packed neighborhood representations for the word-parallel
// intersection kernels.
//
// Both types live in "zone coordinates": the zone of interest is the
// suffix [zone_begin, n) of relabelled vertex ids whose coreness was >=
// the incumbent when bitset rows were enabled (LazyGraph keeps the zone
// fixed from that point on; the incumbent only grows, so everything that
// later matters stays inside it).  Bit i of a row stands for relabelled
// vertex zone_begin + i.
//
//   BitsetRow      — a non-owning view of one vertex's packed filtered
//                    neighborhood (built and memoized by LazyGraph).  It
//                    satisfies the MembershipSet concept, so every scalar
//                    probing kernel also works against it (a bit test
//                    instead of a hash probe).
//   SparseWordSet  — the query side A of |A ∩ B| > θ, as the list of
//                    non-zero 64-bit words of A's characteristic vector.
//                    Intersecting with a BitsetRow is then one AND +
//                    popcount per *occupied* word of A, independent of
//                    the zone size.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "support/check.hpp"
#include "support/faultinject.hpp"
#include "support/aligned.hpp"

namespace lazymc {

/// Non-owning view of a packed bitset neighborhood row over the zone of
/// interest.  `words == nullptr` means "no row" (representation absent).
struct BitsetRow {
  const std::uint64_t* words = nullptr;
  VertexId zone_begin = 0;
  VertexId zone_bits = 0;      // zone size in bits
  std::uint32_t popcount = 0;  // set bits = filtered in-zone degree

  bool valid() const { return words != nullptr; }
  std::size_t num_words() const {
    return (static_cast<std::size_t>(zone_bits) + 63) / 64;
  }

  /// Membership of relabelled vertex v.  Vertices outside the zone report
  /// false; they have coreness below the incumbent at enable time, so by
  /// the lazy-filtering invariant they can no longer affect the search.
  bool contains(VertexId v) const {
    if (v < zone_begin) return false;
    const VertexId i = v - zone_begin;
    if (i >= zone_bits) return false;
    return (words[i >> 6] >> (i & 63)) & 1ULL;
  }
  std::size_t size() const { return popcount; }
};

/// A block of zone rows built ahead of time — the binary graph store's
/// (store/binary_graph.hpp) prebuilt row section, mmap'ed read-only and
/// handed to LazyGraph::adopt_prebuilt_rows so the word kernels consume
/// it zero-copy.  Row i (relabelled vertex zone_begin + i) starts at
/// words + i * stride_words; the producer guarantees 64-byte alignment
/// of `words` and of the stride.  Non-owning: the caller keeps the
/// backing storage (page cache mapping) alive for the consumer's
/// lifetime.
struct PrebuiltRows {
  const std::uint64_t* words = nullptr;
  const std::uint32_t* counts = nullptr;  // per-row popcounts
  VertexId zone_begin = 0;
  VertexId zone_bits = 0;
  std::size_t stride_words = 0;

  bool valid() const { return words && counts && zone_bits > 0; }
};

/// Sparse word-list form of a *sorted* vertex array lying inside the zone.
/// Rebuilt per filter round from scratch storage; building is O(|A|) and
/// allocation-free once the arrays reach their high-water capacity.
///
/// Stored structure-of-arrays (parallel `indices` / `bits` runs); entry k
/// pairs indices()[k] with bits()[k], and the kernels read the row word
/// at indices()[k].
class SparseWordSet {
 public:
  /// Rebuilds from `sorted` (ascending, unique, every element >=
  /// zone_begin and inside the zone).
  void build(std::span<const VertexId> sorted, VertexId zone_begin) {
    // Models the arrays' growth to high-water capacity failing; callers
    // fall back to per-element probes for the round (see
    // neighbor_search.cpp).
    LAZYMC_FAULT_BAD_ALLOC("wordset.build");
    indices_.clear();
    bits_.clear();
    prefix_.clear();
    prefix_.push_back(0);
    zone_begin_ = zone_begin;
    count_ = sorted.size();
    std::uint32_t cur_index = 0;
    std::uint64_t cur_bits = 0;
    std::uint32_t seen = 0;
    bool open = false;
    for (VertexId v : sorted) {
      const VertexId off = v - zone_begin;
      const std::uint32_t w = off >> 6;
      if (!open || w != cur_index) {
        if (open) {
          indices_.push_back(cur_index);
          bits_.push_back(cur_bits);
          prefix_.push_back(seen);
        }
        cur_index = w;
        cur_bits = 0;
        open = true;
      }
      cur_bits |= 1ULL << (off & 63);
      ++seen;
    }
    if (open) {
      indices_.push_back(cur_index);
      bits_.push_back(cur_bits);
      prefix_.push_back(seen);
    }
    verify();
  }

  /// Checked builds: machine-checks the SoA invariants the kernels'
  /// miss-budget arithmetic rests on — parallel indices/bits/prefix run
  /// lengths, strictly ascending word indices, no empty words, and
  /// cumulative popcounts that agree with the stored bit words.  Compiles
  /// to nothing in default builds.
  void verify() const {
#if LAZYMC_CHECKED_ENABLED
    LAZYMC_ASSERT(indices_.size() == bits_.size() &&
                      prefix_.size() == indices_.size() + 1,
                  "SparseWordSet parallel-array lengths disagree");
    std::size_t total = 0;
    for (std::size_t k = 0; k < indices_.size(); ++k) {
      LAZYMC_ASSERT(bits_[k] != 0, "SparseWordSet stores an empty word");
      LAZYMC_ASSERT(k == 0 || indices_[k] > indices_[k - 1],
                    "SparseWordSet word indices are not strictly ascending");
      LAZYMC_ASSERT(prefix_[k] == total,
                    "SparseWordSet prefix-popcount is inconsistent with "
                    "its bit words");
      total += static_cast<std::size_t>(std::popcount(bits_[k]));
    }
    LAZYMC_ASSERT(prefix_.back() == total,
                  "SparseWordSet prefix-popcount tail is inconsistent");
    LAZYMC_ASSERT(total == count_,
                  "SparseWordSet element count disagrees with its bit "
                  "words");
#endif
  }

  /// Occupied zone-word indices, ascending.
  std::span<const std::uint32_t> indices() const { return indices_; }
  /// The non-zero characteristic-vector word for each index.
  std::span<const std::uint64_t> bits() const { return {bits_.data(),
                                                        bits_.size()}; }
  /// prefix()[k] = set bits in entries [0, k); size num_entries() + 1.
  /// Precomputed once per build so the kernels' per-block miss-budget
  /// check needs no popcount of the A side at all (h <= 0 is equivalent
  /// to hits + (|A| - prefix) <= θ) — the build is amortized over one
  /// kernel call per candidate in the filter round that built it.
  std::span<const std::uint32_t> prefix() const { return prefix_; }
  std::size_t num_entries() const { return indices_.size(); }
  /// Total number of set bits (= |A|).
  std::size_t count() const { return count_; }
  VertexId zone_begin() const { return zone_begin_; }

 private:
  // Checked-mode death tests corrupt the private arrays to prove verify()
  // trips; no production code uses this access.
  friend struct SparseWordSetTestAccess;

  std::vector<std::uint32_t> indices_;
  AlignedWords bits_;
  std::vector<std::uint32_t> prefix_;
  std::size_t count_ = 0;
  VertexId zone_begin_ = 0;
};

}  // namespace lazymc

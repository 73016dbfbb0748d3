#include "intersect/intersect.hpp"

#include <algorithm>
#include <bit>


namespace lazymc {

bool SortedLookup::contains(VertexId v) const {
  return std::binary_search(data_.begin(), data_.end(), v);
}

std::size_t intersect_sorted(std::span<const VertexId> a,
                             std::span<const VertexId> b, VertexId* out) {
  std::size_t i = 0, j = 0, n = 0;
  while (i < a.size() && j < b.size()) {
    VertexId x = a[i], y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      out[n++] = x;
      ++i;
      ++j;
    }
  }
  return n;
}

std::vector<VertexId> intersect_sorted(std::span<const VertexId> a,
                                       std::span<const VertexId> b) {
  std::vector<VertexId> out(std::min(a.size(), b.size()));
  out.resize(intersect_sorted(a, b, out.data()));
  return out;
}

std::size_t intersect_gallop(std::span<const VertexId> a,
                             std::span<const VertexId> b, VertexId* out) {
  // Ensure a is the smaller side.
  if (a.size() > b.size()) std::swap(a, b);
  std::size_t n = 0;
  const VertexId* lo = b.data();
  const VertexId* end = b.data() + b.size();
  for (VertexId x : a) {
    // Exponential search from the current frontier.
    std::size_t step = 1;
    const VertexId* probe = lo;
    while (probe + step < end && *(probe + step) < x) {
      probe += step;
      step <<= 1;
    }
    const VertexId* hi = std::min(probe + step + 1, end);
    lo = std::lower_bound(probe, hi, x);
    if (lo != end && *lo == x) {
      out[n++] = x;
      ++lo;
    }
    if (lo == end) break;
  }
  return n;
}

int intersect_sorted_gt(std::span<const VertexId> a,
                        std::span<const VertexId> b, VertexId* out,
                        std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return kTooSmall;
  // The intersection can lose at most (n - hits_possible) elements per
  // side; track the remaining budget on both.
  std::int64_t ha = n - theta;  // tolerable misses from a
  std::int64_t hb = m - theta;  // tolerable misses from b
  std::size_t i = 0, j = 0;
  std::int64_t written = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
      if (--ha <= 0) return kTooSmall;
    } else if (b[j] < a[i]) {
      ++j;
      if (--hb <= 0) return kTooSmall;
    } else {
      out[written++] = a[i];
      ++i;
      ++j;
    }
  }
  // Elements left unscanned on the exhausted side are all misses for the
  // other side.
  if (i < a.size() && static_cast<std::int64_t>(a.size() - i) >= ha) {
    return kTooSmall;
  }
  if (j < b.size() && static_cast<std::int64_t>(b.size() - j) >= hb) {
    return kTooSmall;
  }
  return written > theta ? static_cast<int>(written) : kTooSmall;
}

bool intersect_sorted_size_gt_bool(std::span<const VertexId> a,
                                   std::span<const VertexId> b,
                                   std::int64_t theta,
                                   bool enable_second_exit) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return false;
  std::int64_t ha = n - theta;
  std::int64_t hb = m - theta;
  std::size_t i = 0, j = 0;
  std::int64_t hits = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
      if (--ha <= 0) return false;
    } else if (b[j] < a[i]) {
      ++j;
      if (--hb <= 0) return false;
    } else {
      ++hits;
      if (hits > theta && enable_second_exit) return true;  // second exit
      ++i;
      ++j;
    }
  }
  return hits > theta;
}

int intersect_sorted_size_gt_val(std::span<const VertexId> a,
                                 std::span<const VertexId> b,
                                 std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return kTooSmall;
  std::int64_t ha = n - theta;
  std::int64_t hb = m - theta;
  std::size_t i = 0, j = 0;
  std::int64_t hits = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
      if (--ha <= 0) return kTooSmall;
    } else if (b[j] < a[i]) {
      ++j;
      if (--hb <= 0) return kTooSmall;
    } else {
      ++hits;
      ++i;
      ++j;
    }
  }
  return hits > theta ? static_cast<int>(hits) : kTooSmall;
}

std::size_t intersect_sorted_size(std::span<const VertexId> a,
                                  std::span<const VertexId> b) {
  std::size_t i = 0, j = 0, hits = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++hits;
      ++i;
      ++j;
    }
  }
  return hits;
}

// ---- word-parallel kernels (SparseWordSet x BitsetRow) --------------------
//
// One AND + popcount per occupied word of A.  A's cumulative word
// popcounts (SparseWordSet::prefix) turn the miss-budget update
// h -= popcount(a) - popcount(a&b) into the equivalent test
// hits + (|A| - prefix) <= θ, so the A side is never counted here.

namespace {

/// Appends the set bits of `word` (zone word `index`) to `out` as
/// relabelled vertex ids.
inline std::size_t extract_word(std::uint64_t word, std::uint32_t index,
                                VertexId base, VertexId* out) {
  std::size_t written = 0;
  const VertexId word_base = base + (static_cast<VertexId>(index) << 6);
  while (word) {
    out[written++] =
        word_base + static_cast<unsigned>(std::countr_zero(word));
    word &= word - 1;
  }
  return written;
}

}  // namespace

int intersect_gt(const SparseWordSet& a, const BitsetRow& b, VertexId* out,
                 std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.count());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return kTooSmall;
  const std::uint32_t* idx = a.indices().data();
  const std::uint64_t* bits = a.bits().data();
  const std::uint32_t* prefix = a.prefix().data();
  std::int64_t hits = 0;
  std::size_t written = 0;
  for (std::size_t k = 0; k < a.num_entries(); ++k) {
    const std::uint64_t both = bits[k] & b.words[idx[k]];
    hits += std::popcount(both);
    written += extract_word(both, idx[k], b.zone_begin, out + written);
    if (hits + (n - prefix[k + 1]) <= theta) return kTooSmall;
  }
  return static_cast<int>(written);
}

int intersect_size_gt_val(const SparseWordSet& a, const BitsetRow& b,
                          std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.count());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return kTooSmall;
  const std::uint32_t* idx = a.indices().data();
  const std::uint64_t* bits = a.bits().data();
  const std::uint32_t* prefix = a.prefix().data();
  std::int64_t hits = 0;
  for (std::size_t k = 0; k < a.num_entries(); ++k) {
    hits += std::popcount(bits[k] & b.words[idx[k]]);
    if (hits + (n - prefix[k + 1]) <= theta) return kTooSmall;
  }
  return static_cast<int>(hits);
}

bool intersect_size_gt_bool(const SparseWordSet& a, const BitsetRow& b,
                            std::int64_t theta, bool enable_second_exit) {
  const std::int64_t n = static_cast<std::int64_t>(a.count());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return false;
  const std::uint32_t* idx = a.indices().data();
  const std::uint64_t* bits = a.bits().data();
  const std::uint32_t* prefix = a.prefix().data();
  std::int64_t hits = 0;
  for (std::size_t k = 0; k < a.num_entries(); ++k) {
    hits += std::popcount(bits[k] & b.words[idx[k]]);
    if (hits + (n - prefix[k + 1]) <= theta) return false;  // exit 1
    if (enable_second_exit && hits > theta) return true;    // exit 2
  }
  return hits > theta;
}

std::size_t intersect_size(const SparseWordSet& a, const BitsetRow& b) {
  const std::uint32_t* idx = a.indices().data();
  const std::uint64_t* bits = a.bits().data();
  std::size_t hits = 0;
  for (std::size_t k = 0; k < a.num_entries(); ++k) {
    hits += static_cast<std::size_t>(std::popcount(bits[k] & b.words[idx[k]]));
  }
  return hits;
}

std::size_t intersect_words(const SparseWordSet& a, const BitsetRow& b,
                            VertexId* out) {
  const std::uint32_t* idx = a.indices().data();
  const std::uint64_t* bits = a.bits().data();
  std::size_t written = 0;
  for (std::size_t k = 0; k < a.num_entries(); ++k) {
    written += extract_word(bits[k] & b.words[idx[k]], idx[k], b.zone_begin,
                            out + written);
  }
  return written;
}

// ---- prefetched batch probing into a HopscotchSet -------------------------
//
// The early exits stay at element granularity (results are bit-identical
// to the scalar kernels).  Each key is hashed exactly once: its home
// index is computed kProbeLookahead iterations early, the home cache
// lines are prefetched, and the index parks in a small ring until the
// probe consumes it with contains_at — so consecutive probe misses
// overlap in the memory system and no hash is recomputed.

namespace {

/// Rolling window of precomputed home indices over a probe array.
class ProbeRing {
 public:
  ProbeRing(std::span<const VertexId> a, const HopscotchSet& b)
      : a_(a), b_(b) {
    const std::size_t lead = std::min(a.size(), kProbeLookahead);
    for (std::size_t i = 0; i < lead; ++i) {
      homes_[i] = b.home_of(a[i]);
      b.prefetch_home(homes_[i]);
    }
  }

  /// Membership of a[i]; call with i strictly increasing from 0.
  bool probe(std::size_t i) {
    // Read the parked home before the lookahead store: slot i+lookahead
    // aliases slot i in the ring.
    const std::size_t home = homes_[i & (kProbeLookahead - 1)];
    const std::size_t ahead = i + kProbeLookahead;
    if (ahead < a_.size()) {
      const std::size_t next = b_.home_of(a_[ahead]);
      homes_[ahead & (kProbeLookahead - 1)] = next;
      b_.prefetch_home(next);
    }
    return b_.contains_at(home, a_[i]);
  }

 private:
  static_assert((kProbeLookahead & (kProbeLookahead - 1)) == 0,
                "ring indexing requires a power-of-two lookahead");
  std::span<const VertexId> a_;
  const HopscotchSet& b_;
  std::size_t homes_[kProbeLookahead];
};

}  // namespace

int intersect_gt_prefetch(std::span<const VertexId> a, const HopscotchSet& b,
                          VertexId* out, std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return kTooSmall;
  ProbeRing ring(a, b);
  std::int64_t h = n - theta;
  std::int64_t written = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!ring.probe(i)) {
      if (--h <= 0) return kTooSmall;
    } else {
      out[written++] = a[i];
    }
  }
  return static_cast<int>(written);
}

int intersect_size_gt_val_prefetch(std::span<const VertexId> a,
                                   const HopscotchSet& b, std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return kTooSmall;
  ProbeRing ring(a, b);
  std::int64_t h = n - theta;
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!ring.probe(i)) {
      if (--h <= 0) return kTooSmall;
    } else {
      ++hits;
    }
  }
  return static_cast<int>(hits);
}

bool intersect_size_gt_bool_prefetch(std::span<const VertexId> a,
                                     const HopscotchSet& b, std::int64_t theta,
                                     bool enable_second_exit) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return false;
  ProbeRing ring(a, b);
  std::int64_t h = n - theta;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!ring.probe(static_cast<std::size_t>(i))) {
      if (--h <= 0) return false;
    } else if (enable_second_exit && h > n - i - 1) {
      return true;
    }
  }
  return h > 0;
}

std::size_t intersect_size_prefetch(std::span<const VertexId> a,
                                    const HopscotchSet& b) {
  ProbeRing ring(a, b);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    hits += ring.probe(i) ? 1 : 0;
  }
  return hits;
}

std::size_t intersect_hash_prefetch(std::span<const VertexId> a,
                                    const HopscotchSet& b, VertexId* out) {
  ProbeRing ring(a, b);
  std::size_t written = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ring.probe(i)) out[written++] = a[i];
  }
  return written;
}

std::vector<VertexId> intersect_reference(std::span<const VertexId> a,
                                          std::span<const VertexId> b) {
  std::vector<VertexId> sa(a.begin(), a.end());
  std::vector<VertexId> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  std::vector<VertexId> out;
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace lazymc

// Set intersection kernels, including the paper's early-exit operations
// (Section IV-B, Algorithms 3 and 4).
//
// MC search asks three kinds of questions about |A ∩ B|:
//   intersect_gt            — give me the exact result set, but only if it
//                             is larger than θ (heuristic search);
//   intersect_size_gt_val   — give me the exact size if it is larger than
//                             θ (argmax-degree scans, filter 3);
//   intersect_size_gt_bool  — just tell me whether it exceeds θ
//                             (filter 2), with a *second* early exit that
//                             answers true as soon as enough elements have
//                             been found (the paper's key addition).
//
// A is always a materialized array; B is anything with a contains()-style
// membership test (hopscotch hash set, bitset row, or a sorted array via
// SortedLookup).  All functions are branch-light, allocation-free and
// thread-safe (read-only on inputs).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "hashset/hopscotch_set.hpp"
#include "intersect/bitset_row.hpp"
#include "support/bitset.hpp"

namespace lazymc {

/// Membership concept: B.contains(v) and B.size().
template <typename S>
concept MembershipSet = requires(const S& s, VertexId v) {
  { s.contains(v) } -> std::convertible_to<bool>;
  { s.size() } -> std::convertible_to<std::size_t>;
};

/// Adapter giving a sorted array a contains() interface (binary search).
class SortedLookup {
 public:
  explicit SortedLookup(std::span<const VertexId> sorted) : data_(sorted) {}
  bool contains(VertexId v) const;
  std::size_t size() const { return data_.size(); }

 private:
  std::span<const VertexId> data_;
};

/// Return code of early-exit intersections when the threshold was not met.
inline constexpr int kTooSmall = -1;

// --------------------------------------------------------------------------
// Exact intersections (no early exit) — used where full results are needed
// and in tests as the reference.

/// Sorted-array merge intersection.  Returns the number of elements
/// written to `out` (out must have room for min(|a|,|b|)).
std::size_t intersect_sorted(std::span<const VertexId> a,
                             std::span<const VertexId> b,
                             VertexId* out);

/// As above, appending to a vector.
std::vector<VertexId> intersect_sorted(std::span<const VertexId> a,
                                       std::span<const VertexId> b);

/// Galloping (binary-search) intersection for skewed sizes |a| << |b|.
std::size_t intersect_gallop(std::span<const VertexId> a,
                             std::span<const VertexId> b,
                             VertexId* out);

/// Hash-probe intersection: |a| probes into b.
template <MembershipSet SetB>
std::size_t intersect_hash(std::span<const VertexId> a, const SetB& b,
                           VertexId* out) {
  std::size_t n = 0;
  for (VertexId x : a) {
    if (b.contains(x)) out[n++] = x;
  }
  return n;
}

/// Exact intersection size via hash probes.
template <MembershipSet SetB>
std::size_t intersect_size(std::span<const VertexId> a, const SetB& b) {
  std::size_t n = 0;
  for (VertexId x : a) n += b.contains(x) ? 1 : 0;
  return n;
}

// --------------------------------------------------------------------------
// Early-exit intersections (Algorithms 3 and 4).

/// intersect-gt (Algorithm 3): writes A ∩ B to `out` and returns its size
/// if it is strictly larger than θ; returns kTooSmall (with `out` holding
/// an unspecified partial result) as soon as that becomes impossible.
/// θ is a signed threshold; θ < 0 degenerates to an exact intersection.
template <MembershipSet SetB>
int intersect_gt(std::span<const VertexId> a, const SetB& b, VertexId* out,
                 std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return kTooSmall;
  // h = number of misses we can still tolerate. Result size must be > θ,
  // i.e. misses must stay < n - θ.
  std::int64_t h = n - theta;
  std::int64_t written = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!b.contains(a[i])) {
      if (--h <= 0) return kTooSmall;  // too many misses: exit early
    } else {
      out[written++] = a[i];
    }
  }
  // h > 0 here; intersection size = written = h + θ  (n - misses).
  return static_cast<int>(written);
}

/// intersect-size-gt-val: returns |A ∩ B| if it is strictly larger than θ,
/// else kTooSmall (early exit).  Unlike the boolean variant it must finish
/// the scan to report the exact size, so it has only the "failure" exit.
template <MembershipSet SetB>
int intersect_size_gt_val(std::span<const VertexId> a, const SetB& b,
                          std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return kTooSmall;
  std::int64_t h = n - theta;
  std::int64_t hits = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!b.contains(a[i])) {
      if (--h <= 0) return kTooSmall;
    } else {
      ++hits;
    }
  }
  return static_cast<int>(hits);
}

/// intersect-size-gt-bool (Algorithm 4): returns |A ∩ B| > θ.  Two early
/// exits: (false) when too many elements of A missed B, and (true) when
/// the tolerated-miss budget h exceeds the number of unexamined elements
/// n-i-1 — even if all remaining probes miss, the answer stays true.
/// `enable_second_exit` gates the true-exit for the Fig. 5 ablation.
template <MembershipSet SetB>
bool intersect_size_gt_bool(std::span<const VertexId> a, const SetB& b,
                            std::int64_t theta,
                            bool enable_second_exit = true) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return false;
  std::int64_t h = n - theta;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!b.contains(a[i])) {
      if (--h <= 0) return false;  // exit 1: cannot reach θ+1 hits
    } else if (enable_second_exit && h > n - i - 1) {
      return true;  // exit 2: hits already guaranteed (> θ)
    }
  }
  return h > 0;
}

// --------------------------------------------------------------------------
// Early-exit merge intersections for two *sorted* arrays.  Same contracts
// as the hash-probe variants above; used when neither side has a hash set
// and both are small (below LazyGraph::kHashDegreeThreshold).

/// Merge-based intersect-gt: exact result in `out` when size > theta,
/// else kTooSmall.  Exits as soon as the budget of tolerable "skips" on
/// either side is exhausted.
int intersect_sorted_gt(std::span<const VertexId> a,
                        std::span<const VertexId> b, VertexId* out,
                        std::int64_t theta);

/// Merge-based intersect-size-gt-bool with both early exits.
bool intersect_sorted_size_gt_bool(std::span<const VertexId> a,
                                   std::span<const VertexId> b,
                                   std::int64_t theta,
                                   bool enable_second_exit = true);

/// Merge-based intersect-size-gt-val: exact |A ∩ B| when > theta, else
/// kTooSmall; exits as soon as either side's miss budget is exhausted.
int intersect_sorted_size_gt_val(std::span<const VertexId> a,
                                 std::span<const VertexId> b,
                                 std::int64_t theta);

/// Exact merge intersection size (no early exit; "no early exits" policy).
std::size_t intersect_sorted_size(std::span<const VertexId> a,
                                  std::span<const VertexId> b);

// --------------------------------------------------------------------------
// Word-parallel kernels: SparseWordSet A against a BitsetRow B.  Same
// contracts as the scalar variants above, with the miss-budget / success
// exits checked once per 64-bit word (one AND + popcount per occupied
// word of A) instead of once per element.

/// Word-parallel intersect-gt: writes A ∩ B (ascending relabelled ids) to
/// `out`, returns its size when > theta, else kTooSmall.
int intersect_gt(const SparseWordSet& a, const BitsetRow& b, VertexId* out,
                 std::int64_t theta);

/// Word-parallel intersect-size-gt-val.
int intersect_size_gt_val(const SparseWordSet& a, const BitsetRow& b,
                          std::int64_t theta);

/// Word-parallel intersect-size-gt-bool (both exits, word granularity).
bool intersect_size_gt_bool(const SparseWordSet& a, const BitsetRow& b,
                            std::int64_t theta,
                            bool enable_second_exit = true);

/// Exact word-parallel size / extraction (the "no early exits" policy).
std::size_t intersect_size(const SparseWordSet& a, const BitsetRow& b);
std::size_t intersect_words(const SparseWordSet& a, const BitsetRow& b,
                            VertexId* out);

// --------------------------------------------------------------------------
// Prefetched batch probing into a HopscotchSet.  Identical results to the
// scalar hash kernels; home buckets are software-prefetched
// kProbeLookahead iterations ahead so consecutive misses overlap in the
// memory system instead of serializing on two dependent cache-line loads.

/// How far ahead of the probe loop home buckets are prefetched.
inline constexpr std::size_t kProbeLookahead = 8;

int intersect_gt_prefetch(std::span<const VertexId> a, const HopscotchSet& b,
                          VertexId* out, std::int64_t theta);

int intersect_size_gt_val_prefetch(std::span<const VertexId> a,
                                   const HopscotchSet& b, std::int64_t theta);

bool intersect_size_gt_bool_prefetch(std::span<const VertexId> a,
                                     const HopscotchSet& b, std::int64_t theta,
                                     bool enable_second_exit = true);

/// Exact batched variants (the "no early exits" policy).
std::size_t intersect_size_prefetch(std::span<const VertexId> a,
                                    const HopscotchSet& b);
std::size_t intersect_hash_prefetch(std::span<const VertexId> a,
                                    const HopscotchSet& b, VertexId* out);

// --------------------------------------------------------------------------
// Reference (naive) implementations for property tests.

std::vector<VertexId> intersect_reference(std::span<const VertexId> a,
                                          std::span<const VertexId> b);

}  // namespace lazymc

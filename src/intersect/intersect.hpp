// Set intersection with the paper's early exits (Section IV-B,
// Algorithms 3 and 4): one budgeted scan per representation of B.
//
// MC search asks three kinds of questions about |A ∩ B| (Query):
//   gt            — give me the exact result set, but only if it is larger
//                   than θ (intersect-gt, Algorithm 3; heuristic search);
//   size_gt_val   — give me the exact size if it is larger than θ
//                   (the degree heuristic's argmax-degree scans);
//   size_gt_bool  — just tell me whether it exceeds θ
//                   (intersect-size-gt-bool, Algorithm 4; filters 2, 3).
//
// Every scan keeps a miss budget h = |A| - θ and answers "too small" as
// soon as it runs out (the first exit).  The boolean query also answers
// true as soon as θ+1 elements have been found (the second exit, the
// paper's key addition).  Exits selects which exits a scan takes, for the
// Fig. 5 ablation: all, no_second, or none (scan to the end and compare
// the exact count afterwards).
//
// A is always a sorted array (or its word form, or its marks); the scans
// differ in how they find A's elements in B:
//   probe_scan  — one membership test per element of A against any
//                 MembershipSet: plain contains() (hopscotch hash set,
//                 bitset row, a sorted array via SortedLookup, or B marked
//                 in IdMarks), or the prefetching ProbeRing into a
//                 hopscotch set;
//   merge_scan  — a linear merge of two sorted arrays, with a miss budget
//                 on each side;
//   word_scan   — a SparseWordSet A against a BitsetRow B, one AND +
//                 popcount per occupied word of A, with the budget checked
//                 once per word;
//   csr_scan    — A marked in IdMarks against B's unsorted id list (a CSR
//                 row read through an id map), one mark lookup per
//                 element of B, with the miss budget on B's side.
// mc::IntersectPolicy picks the scan for each call.  All scans are
// allocation-free and thread-safe (read-only on inputs).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "hashset/hopscotch_set.hpp"
#include "intersect/bitset_row.hpp"

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

/// A set of ids marked in a zeroed array over the id range [base, end):
/// entry x - base holds 0, or 1 + the position of x in the list that
/// marked it.  Ids outside the range are never members.  Between uses
/// the array is all zero: clear() with the list mark() took undoes it, in
/// O(list).  The CSR kernel's per-participant scratch (see
/// mc::IntersectPolicy); a MembershipSet.  Not thread-safe.
class IdMarks {
 public:
  /// Makes the range cover [base, end).  Keeps the array when it already
  /// does, so a caller whose base only rises allocates once; the array
  /// itself is allocated by the first mark().  Requires an empty set.
  void cover(VertexId base, VertexId end);
  /// Marks ids[i] with i + 1, translated first through `map` when given.
  /// Translated ids outside the range are skipped; untranslated ids must
  /// lie inside it.  Requires an empty set.
  void mark(std::span<const VertexId> ids, const VertexId* map = nullptr);
  /// Unmarks what mark(ids, map) marked.
  void clear(std::span<const VertexId> ids, const VertexId* map = nullptr);

  /// 0, or 1 + the position of x in the marked list.
  std::uint32_t position(VertexId x) const {
    const VertexId i = x - base_;  // wraps past the range for x < base
    return i < marks_.size() ? marks_[i] : 0;
  }
  bool contains(VertexId x) const { return position(x) != 0; }
  /// Members marked.
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

 private:
  VertexId base_ = 0;
  VertexId end_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint32_t> marks_;  // empty until the first mark()
};

/// The candidate set A of one round of queries with the IdMarks its CSR
/// scans read: marked() marks A on first use, and the destructor unmarks
/// it, so the array is all zero again before A changes.  A query that
/// marks B instead takes the array through unmarked().  One ScopedMarks
/// per IdMarks at a time.
class ScopedMarks {
 public:
  /// `marks` must cover A's ids and be empty.
  ScopedMarks(IdMarks& marks, std::span<const VertexId> a)
      : marks_(marks), a_(a) {}
  ~ScopedMarks() { marks_.clear(a_); }
  ScopedMarks(const ScopedMarks&) = delete;
  ScopedMarks& operator=(const ScopedMarks&) = delete;

  /// A's marks: 1 + each member's position in A.
  const IdMarks& marked() {
    if (marks_.empty()) marks_.mark(a_);
    return marks_;
  }
  /// The array with A unmarked; the caller clears what it marks there.
  IdMarks& unmarked() {
    marks_.clear(a_);
    return marks_;
  }

 private:
  IdMarks& marks_;
  std::span<const VertexId> a_;
};

/// Return code of early-exit intersections when the threshold was not met.
inline constexpr int kTooSmall = -1;

/// How far ahead of the probe loop ProbeRing prefetches home buckets.
inline constexpr std::size_t kProbeLookahead = 8;
/// Minimum |A| for the prefetched batch probe; below it the lookahead is
/// noise.
inline constexpr std::size_t kBatchMin = 2 * kProbeLookahead;
/// Sorted-B shape switch: binary-search probes of A into B when
/// |B| >= kGallopRatio * |A|, else a linear merge.
inline constexpr std::size_t kGallopRatio = 32;

/// The question a scan answers about |A ∩ B| and θ.
enum class Query { gt, size_gt_val, size_gt_bool };

/// Which early exits a scan takes (the Fig. 5 ablation).  Only the
/// boolean query has a second exit, so no_second exists only for it.
enum class Exits { all, no_second, none };

/// The (Query, Exits) pairs a scan is built for.
template <Query Q, Exits E>
concept ScanExits = E != Exits::no_second || Q == Query::size_gt_bool;

/// gt and size_gt_val return the size (or kTooSmall); size_gt_bool a bool.
template <Query Q>
using QueryResult = std::conditional_t<Q == Query::size_gt_bool, bool, int>;

/// The "not larger than θ" answer: false, or kTooSmall.
template <Query Q>
constexpr QueryResult<Q> too_small() {
  if constexpr (Q == Query::size_gt_bool) {
    return false;
  } else {
    return kTooSmall;
  }
}

/// The answer once a scan has counted all `hits`.  For gt, `out` holds
/// A ∩ B (in A's order) exactly when the answer is not too_small().
template <Query Q>
QueryResult<Q> verdict(std::int64_t hits, std::int64_t theta) {
  if (hits <= theta) return too_small<Q>();
  if constexpr (Q == Query::size_gt_bool) {
    return true;
  } else {
    return static_cast<int>(hits);
  }
}

// --------------------------------------------------------------------------
// Element probes: how probe_scan tests a[i] against B.  Called with i
// strictly increasing from 0.

/// Membership by B.contains(a[i]).
template <MembershipSet SetB>
class ContainsProbe {
 public:
  ContainsProbe(std::span<const VertexId> a, const SetB& b) : a_(a), b_(b) {}
  bool hit(std::size_t i) const { return b_.contains(a_[i]); }

 private:
  std::span<const VertexId> a_;
  const SetB& b_;
};

/// Membership in a HopscotchSet with prefetched home buckets.  Each key is
/// hashed exactly once: its home index is computed kProbeLookahead
/// iterations early, the home cache lines are prefetched, and the index
/// parks in a small ring until hit() consumes it with contains_at — so
/// consecutive probe misses overlap in the memory system instead of
/// serializing on two dependent cache-line loads.
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

  bool hit(std::size_t i) {
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

// --------------------------------------------------------------------------
// The three scans.  `out` (room for |A| elements) is written only by
// Query::gt and may be null otherwise.  θ is signed; θ < 0 degenerates to
// an exact intersection.  merge_scan and word_scan are instantiated in
// intersect.cpp for every ScanExits pair.

/// One membership test per element of A (hash, bitset-probe, gallop and,
/// with Probe = ProbeRing, hash-batched).
template <Query Q, Exits E = Exits::all, MembershipSet SetB,
          typename Probe = ContainsProbe<SetB>>
  requires ScanExits<Q, E>
QueryResult<Q> probe_scan(std::span<const VertexId> a, const SetB& b,
                          VertexId* out, std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  if constexpr (E != Exits::none) {
    if (n <= theta || static_cast<std::int64_t>(b.size()) <= theta) {
      return too_small<Q>();
    }
  }
  Probe probe(a, b);
  [[maybe_unused]] std::int64_t budget = n - theta;  // misses tolerable
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (probe.hit(i)) {
      if constexpr (Q == Query::gt) out[hits] = a[i];
      ++hits;
      if constexpr (Q == Query::size_gt_bool && E == Exits::all) {
        if (hits > theta) return true;  // second exit
      }
    } else if constexpr (E != Exits::none) {
      if (--budget <= 0) return too_small<Q>();  // first exit
    }
  }
  return verdict<Q>(hits, theta);
}

/// Linear merge of two sorted arrays (merge).  A mismatch costs one
/// element of the side it skips, so each side has its own miss budget.
template <Query Q, Exits E = Exits::all>
  requires ScanExits<Q, E>
QueryResult<Q> merge_scan(std::span<const VertexId> a,
                          std::span<const VertexId> b, VertexId* out,
                          std::int64_t theta);

/// Word scan of A's occupied words against B's row (bitset-word): one
/// AND + popcount per word, both exits checked once per word.
template <Query Q, Exits E = Exits::all>
  requires ScanExits<Q, E>
QueryResult<Q> word_scan(const SparseWordSet& a, const BitsetRow& b,
                         VertexId* out, std::int64_t theta);

/// B's id list against A's marks (csr-scan): `b` is a CSR row, unsorted
/// once translated through `map`, so the scan walks B and looks each
/// element up in A.  The miss budget |B| - θ is B's; the second exit is
/// the hits.  There is no output: A ∩ B in A's order comes from marking
/// B and a probe_scan of A instead.
template <Query Q, Exits E = Exits::all>
  requires ScanExits<Q, E> && (Q != Query::gt)
QueryResult<Q> csr_scan(const IdMarks& a, std::span<const VertexId> b,
                        const VertexId* map, std::int64_t theta) {
  if constexpr (E != Exits::none) {
    if (static_cast<std::int64_t>(a.size()) <= theta ||
        static_cast<std::int64_t>(b.size()) <= theta) {
      return too_small<Q>();
    }
  }
  [[maybe_unused]] std::int64_t budget =
      static_cast<std::int64_t>(b.size()) - theta;  // misses tolerable
  std::int64_t hits = 0;
  for (VertexId w : b) {
    if (a.contains(map[w])) {
      ++hits;
      if constexpr (Q == Query::size_gt_bool && E == Exits::all) {
        if (hits > theta) return true;  // second exit
      }
    } else if constexpr (E != Exits::none) {
      if (--budget <= 0) return too_small<Q>();  // first exit
    }
  }
  return verdict<Q>(hits, theta);
}

/// Exact sorted-array intersection (the baseline solvers' candidate
/// update).  Returns the number of elements written to `out` (room for
/// min(|a|,|b|)).
inline std::size_t intersect_sorted(std::span<const VertexId> a,
                                    std::span<const VertexId> b,
                                    VertexId* out) {
  return static_cast<std::size_t>(
      merge_scan<Query::gt, Exits::none>(a, b, out, -1));
}

/// Naive intersection (sort both, set_intersection): the test oracle.
std::vector<VertexId> intersect_reference(std::span<const VertexId> a,
                                          std::span<const VertexId> b);

}  // namespace lazymc

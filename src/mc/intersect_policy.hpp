// Adaptive intersection-kernel dispatch plus the Fig. 5 ablation toggles.
//
// Every |A ∩ B| > θ question in the search funnels through IntersectPolicy.
// The NeighborhoodView methods are the *adaptive dispatcher*: they inspect
// which representation B actually has (bitset row / CSR view / hopscotch
// set / sorted array) and the |A| vs |B| shape, then route to one of
// seven kernels, each one of the scans in intersect/intersect.hpp:
//
//   bitset-word   — word_scan of the caller-provided word form of A
//                   against the BitsetRow, popcount per occupied word;
//   bitset-probe  — probe_scan, a bit test per element of A;
//   csr-scan      — a CSR view against the caller's ScopedMarks of A:
//                   csr_scan of B's list against A, marked once per
//                   round, or, for gt, B marked and probe_scan of A, so
//                   the output keeps A's order;
//   hash-batched  — probe_scan through the prefetching ProbeRing
//                   (|A| >= kBatchMin, so the lookahead pays off);
//   hash          — probe_scan, serial hopscotch probes (small A);
//   gallop        — probe_scan, binary search of A's elements in a sorted
//                   B: a sorted array with |B| >= kGallopRatio * |A|, or
//                   a CSR view's sorted list when the caller has no marks;
//   merge         — merge_scan of two sorted arrays otherwise.
//
// A built row always wins, so a CSR view is read only where the lazy
// graph built none.  Whether a vertex is a hub, too costly to scan, is
// the lazy graph's call (LazyGraph::membership), made before the view
// reaches the policy.
//
// Each decision bumps one count (when wired) so reports can show where
// intersections actually ran: a plain `++` in the calling worker's
// `tally` inside the parallel phases, which flush the tallies into the
// solve's atomic `counters` once as they return; a relaxed atomic
// increment of `counters` for a policy used without a tally.
//
// The toggles pick the scan's Exits: "no early exits" scans to the end and
// compares afterwards; "no second exit" keeps only the failure exit of
// intersect-size-gt-bool.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <type_traits>

#include "intersect/intersect.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/search_counters.hpp"

namespace lazymc::mc {

struct IntersectPolicy {
  bool early_exits = true;
  bool second_exit = true;
  /// Dispatch counters; may be null (not counted).  Shared relaxed
  /// atomics: fine for one-off calls, contended under a parallel phase.
  KernelCounters* counters = nullptr;
  /// One worker's plain counters; when set, bumps go here instead of
  /// `counters`.  The parallel phases give each participant a copy of the
  /// policy with its own tally and flush the tallies into `counters`.
  KernelTally* tally = nullptr;

  /// Query Q against an explicit membership structure B (contains()
  /// probes, not counted) under this policy's exits.
  template <Query Q, MembershipSet SetB>
  QueryResult<Q> probe(std::span<const VertexId> a, const SetB& b,
                       VertexId* out, std::int64_t theta) const {
    return with_exits<Q>([&]<Exits E>(ExitsTag<E>) {
      return probe_scan<Q, E>(a, b, out, theta);
    });
  }

  /// Query Q against a sorted B by binary search (gallop), counted.
  template <Query Q>
  QueryResult<Q> gallop(std::span<const VertexId> a,
                        std::span<const VertexId> b, VertexId* out,
                        std::int64_t theta) const {
    bump(Kernel::gallop);
    return probe<Q>(a, SortedLookup(b), out, theta);
  }

  // ---- adaptive dispatch over a NeighborhoodView --------------------------
  // `a` must be sorted ascending (candidate sets are).  `a_words` is the
  // optional word-packed form of the same A; when present and B has a
  // bitset row over the same zone, the word scan runs.  `marks` is A's
  // ScopedMarks for the CSR kernel; without it a CSR view is galloped.

  bool size_gt_bool(std::span<const VertexId> a, const NeighborhoodView& b,
                    std::int64_t theta, const SparseWordSet* a_words = nullptr,
                    ScopedMarks* marks = nullptr) const {
    return query<Query::size_gt_bool>(a, b, nullptr, theta, a_words, marks);
  }

  int gt(std::span<const VertexId> a, const NeighborhoodView& b, VertexId* out,
         std::int64_t theta, const SparseWordSet* a_words = nullptr,
         ScopedMarks* marks = nullptr) const {
    return query<Query::gt>(a, b, out, theta, a_words, marks);
  }

  /// Query Q through the dispatcher (the two above, and tests).
  template <Query Q>
  QueryResult<Q> query(std::span<const VertexId> a, const NeighborhoodView& b,
                       VertexId* out, std::int64_t theta,
                       const SparseWordSet* a_words = nullptr,
                       ScopedMarks* marks = nullptr) const {
    if (b.has_bitset()) {
      const BitsetRow& row = b.bitset();
      if (a_words && a_words->zone_begin() == row.zone_begin) {
        bump(Kernel::bitset_word);
        return with_exits<Q>([&]<Exits E>(ExitsTag<E>) {
          return word_scan<Q, E>(*a_words, row, out, theta);
        });
      }
      bump(Kernel::bitset_probe);
      return probe<Q>(a, row, out, theta);
    }
    if (b.is_csr()) return csr<Q>(a, b, out, theta, marks);
    if (b.is_hashed()) {
      const HopscotchSet& set = *b.hash_set();
      if (a.size() >= kBatchMin) {
        bump(Kernel::hash_batched);
        return with_exits<Q>([&]<Exits E>(ExitsTag<E>) {
          return probe_scan<Q, E, HopscotchSet, ProbeRing>(a, set, out,
                                                           theta);
        });
      }
      bump(Kernel::hash);
      return probe<Q>(a, set, out, theta);
    }
    const std::span<const VertexId> s = b.sorted();
    if (s.size() >= kGallopRatio * std::max<std::size_t>(1, a.size())) {
      return gallop<Q>(a, s, out, theta);
    }
    bump(Kernel::merge);
    return with_exits<Q>([&]<Exits E>(ExitsTag<E>) {
      return merge_scan<Q, E>(a, s, out, theta);
    });
  }

 private:
  template <Exits E>
  using ExitsTag = std::integral_constant<Exits, E>;

  /// Runs `scan` with the Exits the toggles select.  Only the boolean
  /// query has a second exit to switch off.
  template <Query Q, typename Scan>
  QueryResult<Q> with_exits(Scan scan) const {
    if (!early_exits) return scan(ExitsTag<Exits::none>{});
    if constexpr (Q == Query::size_gt_bool) {
      if (!second_exit) return scan(ExitsTag<Exits::no_second>{});
    }
    return scan(ExitsTag<Exits::all>{});
  }

  /// A CSR view B: csr-scan against `marks`, or a gallop without them.
  template <Query Q>
  QueryResult<Q> csr(std::span<const VertexId> a, const NeighborhoodView& b,
                     VertexId* out, std::int64_t theta,
                     ScopedMarks* marks) const {
    if (!marks) {
      bump(Kernel::gallop);
      return probe<Q>(a, b, out, theta);
    }
    bump(Kernel::csr_scan);
    const std::span<const VertexId> list = b.csr();
    if constexpr (Q == Query::gt) {
      IdMarks& b_marks = marks->unmarked();
      b_marks.mark(list, b.orig_to_new());
      const int r = probe<Q>(a, b_marks, out, theta);
      b_marks.clear(list, b.orig_to_new());
      return r;
    } else {
      return with_exits<Q>([&]<Exits E>(ExitsTag<E>) {
        return csr_scan<Q, E>(marks->marked(), list, b.orig_to_new(), theta);
      });
    }
  }

  void bump(Kernel k) const {
    if (tally) {
      ++(*tally)[k];
    } else if (counters) {
      (*counters)[k].fetch_add(1, std::memory_order_relaxed);
    }
  }
};

}  // namespace lazymc::mc

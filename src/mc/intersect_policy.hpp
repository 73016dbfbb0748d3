// Adaptive intersection-kernel dispatch plus the Fig. 5 ablation toggles.
//
// Every |A ∩ B| > θ question in the search funnels through IntersectPolicy.
// The NeighborhoodView methods are the *adaptive dispatcher*: they inspect
// which representations B actually has (bitset row / hopscotch set /
// sorted array) and the |A| vs |B| shape, then route to one of six
// kernels, each one of the scans in intersect/intersect.hpp:
//
//   bitset-word   — word_scan of the caller-provided word form of A
//                   against the BitsetRow, popcount per occupied word;
//   bitset-probe  — probe_scan, a bit test per element of A;
//   hash-batched  — probe_scan through the prefetching ProbeRing
//                   (|A| >= kBatchMin, so the lookahead pays off);
//   hash          — probe_scan, serial hopscotch probes (small A);
//   gallop        — probe_scan, binary search of A's elements in a sorted
//                   B with |B| >= kGallopRatio * |A|;
//   merge         — merge_scan of two sorted arrays otherwise.
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
  // bitset row over the same zone, the word scan runs.

  bool size_gt_bool(std::span<const VertexId> a, const NeighborhoodView& b,
                    std::int64_t theta,
                    const SparseWordSet* a_words = nullptr) const {
    return dispatch<Query::size_gt_bool>(a, b, nullptr, theta, a_words);
  }

  int gt(std::span<const VertexId> a, const NeighborhoodView& b, VertexId* out,
         std::int64_t theta, const SparseWordSet* a_words = nullptr) const {
    return dispatch<Query::gt>(a, b, out, theta, a_words);
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

  template <Query Q>
  QueryResult<Q> dispatch(std::span<const VertexId> a,
                          const NeighborhoodView& b, VertexId* out,
                          std::int64_t theta,
                          const SparseWordSet* a_words) const {
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

  void bump(Kernel k) const {
    if (tally) {
      ++(*tally)[k];
    } else if (counters) {
      (*counters)[k].fetch_add(1, std::memory_order_relaxed);
    }
  }
};

}  // namespace lazymc::mc

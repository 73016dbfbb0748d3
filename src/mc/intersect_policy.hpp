// Adaptive intersection-kernel dispatch plus the Fig. 5 ablation toggles.
//
// Every |A ∩ B| > θ question in the search funnels through IntersectPolicy.
// The template methods keep the original behavior for an explicit
// membership structure B (tests, the degree heuristic's SortedLookup); the
// NeighborhoodView overloads are the *adaptive dispatcher*: they inspect
// which representations B actually has (bitset row / hopscotch set /
// sorted array) and the |A| vs |B| shape, then route to
//
//   bitset-word   — SparseWordSet x BitsetRow, popcount per occupied word
//                   with the miss budget checked at word granularity
//                   (requires the caller-provided word form of A);
//   bitset-probe  — scalar probes against a BitsetRow (bit test each);
//   hash-batched  — prefetched batch probes into the hopscotch set
//                   (|A| >= batch_min, so the lookahead pays off);
//   hash          — serial hopscotch probes (small A);
//   gallop        — binary-search probes of A into a much larger sorted B;
//   merge         — linear merge of two comparably sized sorted arrays.
//
// Each decision bumps one count (when wired) so reports can show where
// intersections actually ran: a plain `++` in the calling worker's
// `tally` inside the parallel phases, which flush the tallies into the
// solve's atomic `counters` once as they return; a relaxed atomic
// increment of `counters` for a policy used without a tally.
//
// Ablation semantics are unchanged: "no early exits" runs the chosen
// representation's exact kernel and compares afterwards; "no second exit"
// keeps only the failure exit of intersect-size-gt-bool.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>

#include "intersect/intersect.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/search_counters.hpp"

namespace lazymc::mc {

struct IntersectPolicy {
  bool early_exits = true;
  bool second_exit = true;
  /// Enables the prefetched batch-probe path for hash-backed B.
  bool batched_probes = true;
  /// Minimum |A| for batched probing (below this the lookahead is noise).
  std::size_t batch_min = 2 * kProbeLookahead;
  /// Sorted-B shape switch: probe A into B (binary search) when
  /// |B| >= probe_ratio * |A|, else merge linearly.
  std::size_t probe_ratio = 32;
  /// Dispatch counters; may be null (not counted).  Shared relaxed
  /// atomics: fine for one-off calls, contended under a parallel phase.
  KernelCounters* counters = nullptr;
  /// One worker's plain counters; when set, bumps go here instead of
  /// `counters`.  The parallel phases give each participant a copy of the
  /// policy with its own tally and flush the tallies into `counters`.
  KernelTally* tally = nullptr;

  // ---- explicit-representation methods (original behavior) ---------------

  /// intersect-gt under the policy: result set when size > theta.
  template <MembershipSet SetB>
  int gt(std::span<const VertexId> a, const SetB& b, VertexId* out,
         std::int64_t theta) const {
    if (early_exits) return intersect_gt(a, b, out, theta);
    int n = static_cast<int>(intersect_hash(a, b, out));
    return n > theta ? n : kTooSmall;
  }

  /// intersect-size-gt-val under the policy.
  template <MembershipSet SetB>
  int size_gt_val(std::span<const VertexId> a, const SetB& b,
                  std::int64_t theta) const {
    if (early_exits) return intersect_size_gt_val(a, b, theta);
    int n = static_cast<int>(intersect_size(a, b));
    return n > theta ? n : kTooSmall;
  }

  /// intersect-size-gt-bool under the policy.
  template <MembershipSet SetB>
  bool size_gt_bool(std::span<const VertexId> a, const SetB& b,
                    std::int64_t theta) const {
    if (!early_exits) {
      return static_cast<std::int64_t>(intersect_size(a, b)) > theta;
    }
    return intersect_size_gt_bool(a, b, theta, second_exit);
  }

  // ---- adaptive dispatch over a NeighborhoodView --------------------------
  // `a` must be sorted ascending (candidate sets are).  `a_words` is the
  // optional word-packed form of the same A; when present and B has a
  // bitset row, the word-parallel kernel runs.

  bool size_gt_bool(std::span<const VertexId> a, const NeighborhoodView& b,
                    std::int64_t theta,
                    const SparseWordSet* a_words = nullptr) const {
    if (b.has_bitset()) {
      const BitsetRow& row = b.bitset();
      if (a_words && a_words->zone_begin() == row.zone_begin) {
        bump(Kernel::bitset_word);
        if (!early_exits) {
          return static_cast<std::int64_t>(intersect_size(*a_words, row)) >
                 theta;
        }
        return intersect_size_gt_bool(*a_words, row, theta, second_exit);
      }
      bump(Kernel::bitset_probe);
      return size_gt_bool(a, row, theta);
    }
    if (b.is_hashed()) {
      const HopscotchSet& set = *b.hash_set();
      if (use_batch(a.size())) {
        bump(Kernel::hash_batched);
        if (!early_exits) {
          return static_cast<std::int64_t>(intersect_size_prefetch(a, set)) >
                 theta;
        }
        return intersect_size_gt_bool_prefetch(a, set, theta, second_exit);
      }
      bump(Kernel::hash);
      return size_gt_bool(a, set, theta);
    }
    const std::span<const VertexId> s = b.sorted();
    if (probe_beats_merge(a.size(), s.size())) {
      bump(Kernel::gallop);
      return size_gt_bool(a, SortedLookup(s), theta);
    }
    bump(Kernel::merge);
    if (!early_exits) {
      return static_cast<std::int64_t>(intersect_sorted_size(a, s)) > theta;
    }
    return intersect_sorted_size_gt_bool(a, s, theta, second_exit);
  }

  int size_gt_val(std::span<const VertexId> a, const NeighborhoodView& b,
                  std::int64_t theta,
                  const SparseWordSet* a_words = nullptr) const {
    if (b.has_bitset()) {
      const BitsetRow& row = b.bitset();
      if (a_words && a_words->zone_begin() == row.zone_begin) {
        bump(Kernel::bitset_word);
        if (!early_exits) {
          int n = static_cast<int>(intersect_size(*a_words, row));
          return n > theta ? n : kTooSmall;
        }
        return intersect_size_gt_val(*a_words, row, theta);
      }
      bump(Kernel::bitset_probe);
      return size_gt_val(a, row, theta);
    }
    if (b.is_hashed()) {
      const HopscotchSet& set = *b.hash_set();
      if (use_batch(a.size())) {
        bump(Kernel::hash_batched);
        if (!early_exits) {
          int n = static_cast<int>(intersect_size_prefetch(a, set));
          return n > theta ? n : kTooSmall;
        }
        return intersect_size_gt_val_prefetch(a, set, theta);
      }
      bump(Kernel::hash);
      return size_gt_val(a, set, theta);
    }
    const std::span<const VertexId> s = b.sorted();
    if (probe_beats_merge(a.size(), s.size())) {
      bump(Kernel::gallop);
      return size_gt_val(a, SortedLookup(s), theta);
    }
    bump(Kernel::merge);
    if (!early_exits) {
      int n = static_cast<int>(intersect_sorted_size(a, s));
      return n > theta ? n : kTooSmall;
    }
    return intersect_sorted_size_gt_val(a, s, theta);
  }

  int gt(std::span<const VertexId> a, const NeighborhoodView& b, VertexId* out,
         std::int64_t theta, const SparseWordSet* a_words = nullptr) const {
    if (b.has_bitset()) {
      const BitsetRow& row = b.bitset();
      if (a_words && a_words->zone_begin() == row.zone_begin) {
        bump(Kernel::bitset_word);
        if (!early_exits) {
          int n = static_cast<int>(intersect_words(*a_words, row, out));
          return n > theta ? n : kTooSmall;
        }
        return intersect_gt(*a_words, row, out, theta);
      }
      bump(Kernel::bitset_probe);
      return gt(a, row, out, theta);
    }
    if (b.is_hashed()) {
      const HopscotchSet& set = *b.hash_set();
      if (use_batch(a.size())) {
        bump(Kernel::hash_batched);
        if (!early_exits) {
          int n = static_cast<int>(intersect_hash_prefetch(a, set, out));
          return n > theta ? n : kTooSmall;
        }
        return intersect_gt_prefetch(a, set, out, theta);
      }
      bump(Kernel::hash);
      return gt(a, set, out, theta);
    }
    const std::span<const VertexId> s = b.sorted();
    if (probe_beats_merge(a.size(), s.size())) {
      bump(Kernel::gallop);
      return gt(a, SortedLookup(s), out, theta);
    }
    bump(Kernel::merge);
    if (!early_exits) {
      int n = static_cast<int>(intersect_sorted(a, s, out));
      return n > theta ? n : kTooSmall;
    }
    return intersect_sorted_gt(a, s, out, theta);
  }

 private:
  bool use_batch(std::size_t a_size) const {
    return batched_probes && a_size >= batch_min;
  }
  bool probe_beats_merge(std::size_t a_size, std::size_t b_size) const {
    return b_size >= probe_ratio * std::max<std::size_t>(1, a_size);
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

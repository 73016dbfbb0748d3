// The search's instrumentation counters, listed once.
//
// Each list below is an X-macro: `LIST(X)` expands X once per counter.
// From them come, with no other copy of the names:
//
//   KernelCounters / SearchStats  the caller-visible totals, relaxed
//                                 atomics read after a solve;
//   KernelTally / SearchTally     plain per-worker blocks, one per pool
//                                 participant on its own cache lines;
//   flush()                       adds a block into the totals;
//
// plus the plain SearchStatsSnapshot and its copy-out in mc/lazymc.
//
// Hot paths bump a worker's tally with plain `++` — the filters make one
// intersection per candidate, and a shared atomic there bounces its cache
// line between cores on nearly every call.  The parallel phases flush the
// blocks once, as they return (FlushOnExit), also when they are cancelled
// or throw, so the totals are complete whenever the caller reads them.
// Adding a counter is one line in its list.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

namespace lazymc::mc {

/// Where the adaptive dispatcher ran each intersection (one count per
/// call; see mc/intersect_policy.hpp).  array_gallop and run_and are
/// always 0: nothing dispatches to them since hybrid rows were removed,
/// and they are kept only because lmcbench/main.cpp and the JSON report's
/// `kernels` keys read them.
#define LAZYMC_KERNEL_COUNTERS(X) \
  X(merge)                        \
  X(gallop)                       \
  X(hash)                         \
  X(hash_batched)                 \
  X(bitset_probe)                 \
  X(bitset_word)                  \
  X(array_gallop)                 \
  X(run_and)                      \
  X(csr_scan)

/// Systematic-search counters (Table III, Figs. 3 and 6), summed over the
/// workers' blocks.
#define LAZYMC_SEARCH_COUNTERS(X)                                            \
  /* Funnel counts (Table III): neighborhoods surviving each stage. */       \
  X(evaluated)     /* NeighborSearch calls */                                \
  X(pass_filter1)  /* after coreness filter */                               \
  X(pass_filter2)  /* after the 1st degree-filter round */                   \
  X(pass_filter3)  /* after the last degree-filter round */                  \
  /* Algorithmic choice (Fig. 3). */                                         \
  X(solved_mc)                                                               \
  X(solved_vc)                                                               \
  /* k-VC probes abandoned on node budget and re-solved as MC. */            \
  X(vc_fallbacks)                                                            \
  /* Worklist chunks retired unvisited because the incumbent had grown */    \
  /* past their coreness by claim time (incumbent broadcast at work). */     \
  X(retired_chunks)                                                          \
  /* Always 0.  Ignored; kept only because lmcbench/main.cpp reads it. */    \
  X(split_tasks)                                                             \
  /* Graceful degradation: SparseWordSet builds that failed on an */         \
  /* allocation (the filter round probed element by element instead). */     \
  X(degraded_wordsets)                                                       \
  /* Branch-and-bound and k-VC node counts (Fig. 6). */                      \
  X(mc_nodes)                                                                \
  X(vc_nodes)                                                                \
  /* k-VC work per node: LP-bound evaluations, those that refuted their */   \
  /* node, and Buss, degree-1 and triangle reductions applied. */            \
  X(vc_lp_calls)                                                             \
  X(vc_lp_refuted)                                                           \
  X(vc_reductions)

/// Work split (Fig. 3): X(phase) declares `phase_ns` and the accessor
/// `phase_seconds()`.
#define LAZYMC_SEARCH_TIMERS(X) \
  X(filter)                     \
  X(mc)                         \
  X(vc)

enum class Kernel : std::uint8_t {
#define LAZYMC_ENUM(name) name,
  LAZYMC_KERNEL_COUNTERS(LAZYMC_ENUM)
#undef LAZYMC_ENUM
};

inline std::uint64_t counter_value(const std::atomic<std::uint64_t>& c) {
  return c.load(std::memory_order_relaxed);
}
inline std::uint64_t counter_value(std::uint64_t c) { return c; }

/// One count per kernel, as relaxed atomics or as plain words.
template <class Count>
struct BasicKernelCounters {
#define LAZYMC_FIELD(name) Count name{0};
  LAZYMC_KERNEL_COUNTERS(LAZYMC_FIELD)
#undef LAZYMC_FIELD

  Count& operator[](Kernel k) {
    switch (k) {
#define LAZYMC_CASE(name) \
  case Kernel::name:      \
    return name;
      LAZYMC_KERNEL_COUNTERS(LAZYMC_CASE)
#undef LAZYMC_CASE
    }
    return merge;
  }
};

using KernelCounters = BasicKernelCounters<std::atomic<std::uint64_t>>;
using KernelTally = BasicKernelCounters<std::uint64_t>;

/// Aggregated instrumentation across NeighborSearch calls.  Cache-line
/// aligned, so per-worker blocks in an array never share a line.
template <class Count>
struct alignas(64) BasicSearchStats {
#define LAZYMC_FIELD(name) Count name{0};
  LAZYMC_SEARCH_COUNTERS(LAZYMC_FIELD)
#undef LAZYMC_FIELD
  // Where the adaptive dispatcher ran each intersection.  The solve wires
  // its IntersectPolicy's counters here (mc::lazy_mc does).
  BasicKernelCounters<Count> kernels;
#define LAZYMC_FIELD(phase) Count phase##_ns{0};
  LAZYMC_SEARCH_TIMERS(LAZYMC_FIELD)
#undef LAZYMC_FIELD

#define LAZYMC_SECONDS(phase)                                           \
  double phase##_seconds() const {                                      \
    return static_cast<double>(counter_value(phase##_ns)) * 1e-9;       \
  }
  LAZYMC_SEARCH_TIMERS(LAZYMC_SECONDS)
#undef LAZYMC_SECONDS
  /// Total systematic-search work in seconds (Fig. 7 "work" ratio).
  double work_seconds() const {
    return filter_seconds() + mc_seconds() + vc_seconds();
  }
};

/// The caller-visible totals (relaxed atomics; complete once the search
/// call that filled them has returned).
using SearchStats = BasicSearchStats<std::atomic<std::uint64_t>>;
/// One worker's plain block; never shared between threads.
using SearchTally = BasicSearchStats<std::uint64_t>;

namespace detail {
inline void merge_sum(std::atomic<std::uint64_t>& into, std::uint64_t v) {
  if (v != 0) into.fetch_add(v, std::memory_order_relaxed);
}
}  // namespace detail

/// Adds a worker's kernel counts into `into` (no-op when null).
inline void flush(const KernelTally& from, KernelCounters* into) {
  if (into == nullptr) return;
#define LAZYMC_FLUSH(name) detail::merge_sum(into->name, from.name);
  LAZYMC_KERNEL_COUNTERS(LAZYMC_FLUSH)
#undef LAZYMC_FLUSH
}

/// Adds a worker's search counters into `into` and its kernel counts into
/// `kernels`, the solve's IntersectPolicy::counters.  Either target may be
/// null.
inline void flush(const SearchTally& from, SearchStats* into,
                  KernelCounters* kernels) {
  flush(from.kernels, kernels);
  if (into == nullptr) return;
#define LAZYMC_FLUSH(name) detail::merge_sum(into->name, from.name);
  LAZYMC_SEARCH_COUNTERS(LAZYMC_FLUSH)
#undef LAZYMC_FLUSH
#define LAZYMC_FLUSH(phase) \
  detail::merge_sum(into->phase##_ns, from.phase##_ns);
  LAZYMC_SEARCH_TIMERS(LAZYMC_FLUSH)
#undef LAZYMC_FLUSH
}

/// Flushes `tallies` when the scope exits — by return, cancellation or
/// exception — so the caller's totals never miss a worker's counts.
/// Declare it after the tallies and before the parallel phase that fills
/// them; the pool has joined every participant by the time it runs.
class FlushOnExit {
 public:
  FlushOnExit(std::span<const SearchTally> tallies, SearchStats* stats,
              KernelCounters* kernels)
      : tallies_(tallies), stats_(stats), kernels_(kernels) {}
  FlushOnExit(const FlushOnExit&) = delete;
  FlushOnExit& operator=(const FlushOnExit&) = delete;
  ~FlushOnExit() {
    for (const SearchTally& t : tallies_) flush(t, stats_, kernels_);
  }

 private:
  std::span<const SearchTally> tallies_;
  SearchStats* stats_;
  KernelCounters* kernels_;
};

}  // namespace lazymc::mc

// Parallel runtime substrate for LazyMC.
//
// The paper builds on the Parlay scheduler; this module provides the subset
// of functionality the algorithms actually need, tuned so the scheduler
// itself stays off the profile:
//
//  * `parallel_for` / `parallel_reduce` are template-dispatched: the body
//    is invoked through a per-type trampoline (one indirect call per
//    participant per launch), so per-iteration calls inline — no
//    `std::function` erasure anywhere on the hot path.
//  * Iteration ranges are *sharded*: each participant owns a contiguous
//    slice of [begin, end) and claims grain-sized chunks from it with a
//    single relaxed fetch_add on its own cache line.  A participant that
//    drains its shard steals chunks from the other shards round-robin, so
//    skewed per-iteration costs still balance without a central counter.
//  * `drain_in_order` hands out a list that is sorted highest priority
//    first (the systematic-search worklist, the heuristics' seeds and
//    levels) one index at a time from a single shared cursor, so every
//    participant starts on the most valuable work left.  Contiguous
//    per-participant slices, as in parallel_for, would start all but one
//    participant on low-priority work.
//
// Nested-parallelism rule: a `parallel_for` / `parallel_invoke_all` issued
// from inside a worker of the same pool runs the whole range inline on the
// calling worker (no new job is published).  This keeps the runtime
// deadlock-free without a full work-stealing scheduler and matches how
// LazyMC uses parallelism: one flat parallel phase at a time, with
// irregular work listed up front and drained in order instead of forked
// from inside a worker.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "support/faultinject.hpp"
#include "support/mutex.hpp"
#include "support/spinlock.hpp"
#include "support/thread_annotations.hpp"

namespace lazymc {

namespace detail {

/// One shard of a sharded iteration range.  Padded to a cache line so
/// owners claiming from their own shard never false-share.
struct alignas(64) RangeShard {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
};

/// A [begin, end) range split into one contiguous shard per participant.
/// Participants claim grain-sized chunks from their own shard first, then
/// steal chunks from other shards round-robin.
class ShardedRange {
 public:
  ShardedRange(std::size_t begin, std::size_t end, std::size_t participants,
               std::size_t grain)
      : parts_(participants == 0 ? 1 : participants),
        grain_(grain == 0 ? 1 : grain),
        shards_(std::make_unique<RangeShard[]>(parts_)) {
    const std::size_t n = end - begin;
    const std::size_t per = (n + parts_ - 1) / parts_;
    for (std::size_t p = 0; p < parts_; ++p) {
      std::size_t lo = begin + std::min(n, p * per);
      std::size_t hi = begin + std::min(n, (p + 1) * per);
      shards_[p].next.store(lo, std::memory_order_relaxed);
      shards_[p].end = hi;
    }
  }

  /// Claims the next chunk for participant `p`: own shard first, then the
  /// other shards in round-robin order.  Returns false when no work is
  /// left anywhere.
  bool claim(std::size_t p, std::size_t& lo, std::size_t& hi) {
    if (p >= parts_) p %= parts_;
    for (std::size_t off = 0; off < parts_; ++off) {
      if (claim_from(shards_[(p + off) % parts_], lo, hi)) return true;
    }
    return false;
  }

  /// Marks every shard drained (used to cut short after an exception).
  void poison() {
    for (std::size_t p = 0; p < parts_; ++p) {
      shards_[p].next.store(shards_[p].end, std::memory_order_relaxed);
    }
  }

 private:
  bool claim_from(RangeShard& s, std::size_t& lo, std::size_t& hi) {
    // The load guards the fetch_add so drained shards are not incremented
    // without bound by polling thieves; the race it leaves is benign.
    if (s.next.load(std::memory_order_relaxed) >= s.end) return false;
    lo = s.next.fetch_add(grain_, std::memory_order_relaxed);
    if (lo >= s.end) return false;
    hi = std::min(s.end, lo + grain_);
    return true;
  }

  std::size_t parts_;
  std::size_t grain_;
  std::unique_ptr<RangeShard[]> shards_;
};

/// A job handed to the pool.  `run` is a per-body-type trampoline set by
/// the launching template, so the scheduler performs exactly one indirect
/// call per participant and the per-iteration body call inlines.
struct JobBase {
  void (*run)(JobBase&, std::size_t participant) = nullptr;
  SpinLock error_lock;
  std::exception_ptr error LAZYMC_GUARDED_BY(error_lock);

  void capture_error() noexcept {
    SpinLockGuard guard(error_lock);
    if (!error) error = std::current_exception();
  }

  /// The first captured error (null when none).  Read under the lock so
  /// the error protocol is fully lock-disciplined; the caller uses this
  /// after the join, but taking the lock costs nothing there.
  std::exception_ptr take_error() {
    SpinLockGuard guard(error_lock);
    return error;
  }
};

template <typename Body>
struct ParallelForJob final : JobBase {
  ParallelForJob(Body& b, std::size_t begin, std::size_t end,
                 std::size_t participants, std::size_t grain)
      : body(&b), range(begin, end, participants, grain) {
    run = &dispatch;
  }

  Body* body;
  ShardedRange range;

  static void dispatch(JobBase& base, std::size_t p) {
    auto& self = static_cast<ParallelForJob&>(base);
    Body& body = *self.body;
    std::size_t lo = 0, hi = 0;
    try {
      while (self.range.claim(p, lo, hi)) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      }
    } catch (...) {
      self.capture_error();
      self.range.poison();
    }
  }
};

template <typename Fn>
struct InvokeAllJob final : JobBase {
  explicit InvokeAllJob(Fn& f) : fn(&f) { run = &dispatch; }

  Fn* fn;

  static void dispatch(JobBase& base, std::size_t p) {
    auto& self = static_cast<InvokeAllJob&>(base);
    try {
      (*self.fn)(p);
    } catch (...) {
      self.capture_error();
    }
  }
};

}  // namespace detail

/// A fork-join thread pool.  One global instance (see `thread_pool()`) is
/// shared by the whole library; tests may construct private pools.
///
/// Launch discipline: any number of external (non-worker) threads may
/// launch jobs concurrently — the epoch-based publication still has a
/// single launcher slot, so launchers serialize on an internal gate and
/// each job runs to completion before the next is published.  This is
/// what lets a resident daemon multiplex concurrent solve requests onto
/// one pool: requests interleave at job granularity (a parallel phase or
/// an ordered drain each being one job), and a request blocked behind a
/// long drain stays cancellable through its own SolveControl, which the
/// draining job's stop predicate polls.  Calls *from inside a worker*
/// never take the gate (they run inline, see the nested-parallelism
/// rule), so worker-side nesting cannot deadlock against it.
class ThreadPool {
 public:
  /// Creates a pool running `num_threads` workers (0 = hardware concurrency).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (always >= 1; the caller participates).
  std::size_t num_threads() const { return threads_.size() + 1; }

  /// Runs `body(i)` for i in [begin, end).  The range is split into one
  /// contiguous shard per participant; each participant claims blocks of
  /// `grain` iterations from its own shard and steals blocks from other
  /// shards once its own is drained.  Blocks until all iterations
  /// complete.  Re-entrant calls from a worker thread run sequentially
  /// (see the nested-parallelism rule above).  Exceptions thrown by
  /// `body` propagate to the caller (first one wins).
  template <typename Body>
  void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                    std::size_t grain = 1) {
    if (begin >= end) return;
    if (grain == 0) grain = 1;
    if (in_worker() || threads_.empty() || end - begin <= grain) {
      for (std::size_t i = begin; i < end; ++i) body(i);
      return;
    }
    detail::ParallelForJob<std::remove_reference_t<Body>> job(
        body, begin, end, num_threads(), grain);
    run_job(job);
  }

  /// Runs `fn(t)` once on each of the `num_threads()` participants
  /// (t = participant index).  Used for per-thread accumulators and for
  /// draining a prioritized list (drain_in_order).
  template <typename Fn>
  void parallel_invoke_all(Fn&& fn) {
    if (in_worker() || threads_.empty()) {
      for (std::size_t t = 0; t < num_threads(); ++t) fn(t);
      return;
    }
    detail::InvokeAllJob<std::remove_reference_t<Fn>> job(fn);
    run_job(job);
  }

  /// True when called from inside one of this pool's workers.
  bool in_worker() const;

 private:
  void worker_loop(std::size_t worker_index);
  /// Publishes `job`, participates as participant 0, joins, rethrows.
  void run_job(detail::JobBase& job);

  std::vector<std::thread> threads_;
  /// Serializes external launchers (held across one entire job, from
  /// publication to join).  Ordered strictly before mutex_.
  Mutex launch_mutex_;
  Mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  detail::JobBase* current_job_ LAZYMC_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t job_epoch_ LAZYMC_GUARDED_BY(mutex_) = 0;
  std::size_t workers_done_ LAZYMC_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ LAZYMC_GUARDED_BY(mutex_) = false;
};

/// Returns the process-wide pool.  The first call creates it with
/// hardware concurrency.
ThreadPool& thread_pool();

/// Sets the number of threads used by `thread_pool()`.  Destroys and
/// recreates the global pool; must not be called concurrently with other
/// library operations.  Used by the Fig. 7 thread sweep.
void set_num_threads(std::size_t n);

/// Current size of the global pool.
std::size_t num_threads();

/// Convenience wrappers over the global pool. ------------------------------

template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                  std::size_t grain = 1) {
  thread_pool().parallel_for(begin, end, std::forward<Body>(body), grain);
}

/// Parallel reduction: combines `body(i)` over [begin, end) with `combine`,
/// starting from `identity`.  `combine` must be associative.  Shares the
/// sharded claiming scheme with parallel_for; per-participant partials are
/// combined on the calling thread.
template <typename T, typename Body, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, T identity, Body&& body,
                  Combine&& combine, std::size_t grain = 256) {
  if (begin >= end) return identity;
  ThreadPool& pool = thread_pool();
  const std::size_t p = pool.num_threads();
  std::vector<T> partial(p, identity);
  detail::ShardedRange range(begin, end, p, grain == 0 ? 1 : grain);
  pool.parallel_invoke_all([&](std::size_t t) {
    T acc = identity;
    std::size_t lo = 0, hi = 0;
    while (range.claim(t, lo, hi)) {
      for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, body(i));
    }
    partial[t] = acc;
  });
  T result = identity;
  for (const T& v : partial) result = combine(result, v);
  return result;
}

/// Runs `process(participant, i)` once for each i in [0, count) on every
/// pool participant, which claim indices one at a time from one shared
/// cursor.  Work therefore starts in index order at any thread count: a
/// caller that lists its work highest priority first has it claimed in
/// exactly that order, and a 1-participant drain visits 0..count-1.
///
/// `stop()` is polled before every claim by every participant; when it
/// returns true all participants abandon the drain, leaving the remaining
/// indices unvisited (cooperative cancellation).  An exception in
/// `process` stops the other participants at their next claim and then
/// propagates through the pool (first one wins, as with parallel_for).
template <typename Process, typename Stop>
void drain_in_order(ThreadPool& pool, std::size_t count, Process&& process,
                    Stop&& stop) {
  detail::ShardedRange range(0, count, /*participants=*/1, /*grain=*/1);
  pool.parallel_invoke_all([&](std::size_t p) {
    std::size_t i = 0, end = 0;
    while (!stop() && range.claim(0, i, end)) {
      // Injected scheduling stall (fault builds only): models a worker
      // descheduled between claiming an index and processing it.
      LAZYMC_FAULT_STALL("worker.stall", 2);
      try {
        process(p, i);
      } catch (...) {
        range.poison();
        throw;
      }
    }
  });
}

}  // namespace lazymc

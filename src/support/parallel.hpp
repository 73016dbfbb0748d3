// Parallel runtime substrate for LazyMC.
//
// The paper builds on the Parlay scheduler; this module provides the subset
// of functionality the algorithms actually need, tuned so the scheduler
// itself stays off the profile:
//
//  * `parallel_for` and `parallel_invoke_all` are template-dispatched: the
//    body is invoked through a per-type trampoline (one indirect call per
//    participant per launch), so per-iteration calls inline — no
//    `std::function` erasure anywhere on the hot path.
//  * Every parallel loop claims its work from one shared cursor
//    (`detail::ClaimCursor`): a single relaxed fetch_add hands out the
//    next chunk of the range in index order.  `parallel_for` claims
//    grain-sized chunks; `drain_in_order` claims one index at a time, so
//    a list sorted highest priority first (the systematic-search
//    worklist, the heuristics' seeds and levels) is started in exactly
//    that order and every participant begins on the most valuable work
//    left.  Skewed per-iteration costs balance because a participant that
//    finishes early simply claims again.
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
#include <thread>
#include <type_traits>
#include <vector>

#include "support/faultinject.hpp"
#include "support/mutex.hpp"
#include "support/spinlock.hpp"
#include "support/thread_annotations.hpp"

namespace lazymc {

namespace detail {

/// The shared claim cursor behind every parallel loop: participants
/// take chunks of `grain` indices from [next, end) in index order.  It
/// fills one cache line of its own, so claims never false-share with the
/// launcher's other state.
struct ClaimCursor {
  ClaimCursor(std::size_t begin, std::size_t end_index, std::size_t chunk)
      : next(begin), end(end_index), grain(chunk) {}

  /// Claims the next chunk [lo, hi).  Returns false when the range is
  /// drained (or poisoned).
  bool claim(std::size_t& lo, std::size_t& hi) {
    // The load guards the fetch_add so a drained cursor is not pushed
    // without bound by participants polling it; the race it leaves is
    // benign.
    if (next.load(std::memory_order_relaxed) >= end) return false;
    lo = next.fetch_add(grain, std::memory_order_relaxed);
    if (lo >= end) return false;
    hi = std::min(end, lo + grain);
    return true;
  }

  /// Marks the range drained (used to cut short after an exception).
  void poison() { next.store(end, std::memory_order_relaxed); }

  alignas(64) std::atomic<std::size_t> next;
  std::size_t end;
  std::size_t grain;
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

/// How a launch from outside the pool meets a launch gate that another
/// launcher holds: `kQueue` waits for the gate; `kInlineIfBusy` runs the
/// whole launch on the calling thread instead, so short work (a graph
/// load on a daemon connection thread) never waits behind a long job
/// (another request's search drain).
enum class Launch { kQueue, kInlineIfBusy };

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

  /// Runs `body(i)` for i in [begin, end).  Every participant claims
  /// blocks of `grain` iterations, in index order, from one shared
  /// cursor until the range is drained; blocks until all iterations
  /// complete.  Re-entrant calls from a worker thread, a 1-thread pool
  /// and a range of at most one grain run inline (see the
  /// nested-parallelism rule above).  Exceptions thrown by `body` stop
  /// the other participants at their next claim and propagate to the
  /// caller (first one wins).  `launch` is as for
  /// parallel_invoke_all.
  template <typename Body>
  void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                    std::size_t grain = 1, Launch launch = Launch::kQueue) {
    if (begin >= end) return;
    if (grain == 0) grain = 1;
    if (in_worker() || threads_.empty() || end - begin <= grain) {
      for (std::size_t i = begin; i < end; ++i) body(i);
      return;
    }
    detail::ClaimCursor cursor(begin, end, grain);
    const auto drain = [&](std::size_t) {
      std::size_t lo = 0, hi = 0;
      try {
        while (cursor.claim(lo, hi)) {
          for (std::size_t i = lo; i < hi; ++i) body(i);
        }
      } catch (...) {
        cursor.poison();
        throw;
      }
    };
    parallel_invoke_all(drain, launch);
  }

  /// Runs `fn(t)` once on each of the `num_threads()` participants
  /// (t = participant index).  Used for per-thread accumulators and for
  /// draining a prioritized list (drain_in_order).  Under
  /// `Launch::kInlineIfBusy` a held launch gate makes the caller run
  /// every `fn(t)` itself, in participant order.
  template <typename Fn>
  void parallel_invoke_all(Fn&& fn, Launch launch = Launch::kQueue) {
    if (in_worker() || threads_.empty()) {
      for (std::size_t t = 0; t < num_threads(); ++t) fn(t);
      return;
    }
    detail::InvokeAllJob<std::remove_reference_t<Fn>> job(fn);
    if (launch == Launch::kQueue) {
      run_job(job);
    } else if (!try_run_job(job)) {
      for (std::size_t t = 0; t < num_threads(); ++t) fn(t);
    }
  }

  /// True when called from inside one of this pool's workers.
  bool in_worker() const;

 private:
  void worker_loop(std::size_t worker_index);
  /// Takes the launch gate, runs `job` (publish_and_join), rethrows.
  void run_job(detail::JobBase& job);
  /// As run_job, but returns false at once when the gate is held.
  bool try_run_job(detail::JobBase& job);
  /// Publishes `job`, participates as participant 0, joins; returns the
  /// job's first captured error.
  std::exception_ptr publish_and_join(detail::JobBase& job)
      LAZYMC_REQUIRES(launch_mutex_);

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
  detail::ClaimCursor cursor(0, count, /*chunk=*/1);
  pool.parallel_invoke_all([&](std::size_t p) {
    std::size_t i = 0, end = 0;
    while (!stop() && cursor.claim(i, end)) {
      // Injected scheduling stall (fault builds only): models a worker
      // descheduled between claiming an index and processing it.
      LAZYMC_FAULT_STALL("worker.stall", 2);
      try {
        process(p, i);
      } catch (...) {
        cursor.poison();
        throw;
      }
    }
  });
}

}  // namespace lazymc

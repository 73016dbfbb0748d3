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
//  * `WorkQueue<T>` is a sharded multi-producer multi-consumer queue
//    (per-shard locked rings, batch push, steal-half) for irregular work
//    that does not fit a flat loop — e.g. the systematic-search worklist.
//  * `drain_queue` has every participant pop or steal from a WorkQueue
//    filled before the drain starts; nothing is pushed while it runs, so
//    an empty queue means every item has been claimed.
//
// Nested-parallelism rule: a `parallel_for` / `parallel_invoke_all` issued
// from inside a worker of the same pool runs the whole range inline on the
// calling worker (no new job is published).  This keeps the runtime
// deadlock-free without a full work-stealing scheduler and matches how
// LazyMC uses parallelism: one flat parallel phase at a time, with
// irregular work routed through WorkQueue instead of nested forks.
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
/// a queue drain each being one job), and a request blocked behind a
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
  /// draining a WorkQueue with one shard per participant.
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

/// A sharded multi-producer multi-consumer work queue for irregular work
/// that does not fit a flat parallel_for.
///
/// Each shard is a small locked ring: owners push to the back and pop from
/// the *front* (so items pushed in priority order are consumed in priority
/// order), while a consumer whose shard is empty steals the *back half* of
/// a victim shard in one locked operation (steal-half), keeping future
/// steals off the victim's cache line.  Locks are per-shard spinlocks;
/// with one shard per participant the common pop is uncontended.
///
/// `size()` counts queued items only — an item being executed by a
/// consumer is no longer in the queue, and an item moved by a steal is
/// counted once throughout.  When producers have finished pushing,
/// `empty()` is the termination condition for drain loops.
template <typename T>
class WorkQueue {
 public:
  explicit WorkQueue(std::size_t num_shards)
      : num_shards_(num_shards == 0 ? 1 : num_shards),
        shards_(std::make_unique<Shard[]>(num_shards_)) {}

  std::size_t num_shards() const { return num_shards_; }

  /// Appends one item to `shard` (lowest priority in that shard).
  void push(std::size_t shard, T item) {
    Shard& s = shard_at(shard);
    {
      SpinLockGuard guard(s.lock);
      s.items.push_back(std::move(item));
    }
    size_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends a batch under one lock acquisition.
  template <typename It>
  void push_batch(std::size_t shard, It first, It last) {
    if (first == last) return;
    Shard& s = shard_at(shard);
    std::size_t count = 0;
    {
      SpinLockGuard guard(s.lock);
      for (It it = first; it != last; ++it, ++count) s.items.push_back(*it);
    }
    size_.fetch_add(count, std::memory_order_relaxed);
  }

  /// Pops the highest-priority item of the participant's own shard.
  bool try_pop_local(std::size_t shard, T& out) {
    Shard& s = shard_at(shard);
    SpinLockGuard guard(s.lock);
    if (!take_front(s, out)) return false;
    size_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  /// Steals roughly half of a victim shard (scanning round-robin from
  /// `thief + 1`), keeps the loot in the thief's shard and returns the
  /// loot's highest-priority item.  Items move straight from the victim
  /// into the thief's shard (both locks held, acquired in global index
  /// order so symmetric steals cannot deadlock); once the thief shard's
  /// vector capacity has grown to its high-water mark, steals allocate
  /// nothing.
  bool try_steal(std::size_t thief, T& out) {
    thief %= num_shards_;
    Shard& mine = shards_[thief];
    for (std::size_t off = 1; off < num_shards_; ++off) {
      const std::size_t vi = (thief + off) % num_shards_;
      if (steal_from(mine, shards_[vi], /*victim_first=*/vi < thief, out)) {
        return true;
      }
    }
    return false;
  }

  /// Pop-or-steal for participant `shard`.  False = queue globally empty
  /// (assuming no concurrent pushes).
  bool pop(std::size_t shard, T& out) {
    if (try_pop_local(shard, out)) return true;
    return try_steal(shard, out);
  }

  /// Number of queued (not yet claimed) items.
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

 private:
  struct alignas(64) Shard {
    SpinLock lock;
    // FIFO from `head`; back half is steal territory.
    std::vector<T> items LAZYMC_GUARDED_BY(lock);
    std::size_t head LAZYMC_GUARDED_BY(lock) = 0;  // first live item
  };

  Shard& shard_at(std::size_t shard) { return shards_[shard % num_shards_]; }

  /// Moves the back half of `victim` into `mine`, returning the loot's
  /// highest-priority item through `out`.  Both locks are taken in global
  /// shard-index order (`victim_first` says which comes first), which the
  /// thread-safety analysis cannot express — the conditional acquisition
  /// order aliases the two capabilities — so this one function opts out;
  /// every access below still happens with both shard locks held.
  bool steal_from(Shard& mine, Shard& victim, bool victim_first,
                  T& out) LAZYMC_NO_THREAD_SAFETY_ANALYSIS {
    SpinLockGuard g1(victim_first ? victim.lock : mine.lock);
    SpinLockGuard g2(victim_first ? mine.lock : victim.lock);
    const std::size_t avail = victim.items.size() - victim.head;
    if (avail == 0) return false;
    const std::size_t take = (avail + 1) / 2;
    auto src = victim.items.end() - static_cast<std::ptrdiff_t>(take);
    out = std::move(*src);
    mine.items.insert(mine.items.end(), std::move_iterator(src + 1),
                      std::move_iterator(victim.items.end()));
    victim.items.resize(victim.items.size() - take);
    compact(victim);
    size_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  static bool take_front(Shard& s, T& out) LAZYMC_REQUIRES(s.lock) {
    if (s.head == s.items.size()) return false;
    out = std::move(s.items[s.head++]);
    compact(s);
    return true;
  }

  /// Reclaims the consumed prefix once it dominates the buffer.
  static void compact(Shard& s) LAZYMC_REQUIRES(s.lock) {
    if (s.head == s.items.size()) {
      s.items.clear();
      s.head = 0;
    } else if (s.head >= 64 && s.head * 2 >= s.items.size()) {
      s.items.erase(s.items.begin(),
                    s.items.begin() + static_cast<std::ptrdiff_t>(s.head));
      s.head = 0;
    }
  }

  std::size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::size_t> size_{0};
};

/// Drains `queue` with every pool participant until it is empty.  The
/// queue must be filled before the call: `process(participant, item)` may
/// not push, so an empty queue means every item has been claimed.
///
/// `stop()` is polled each iteration by every participant; when it
/// returns true all participants abandon the drain, leaving the remaining
/// items queued (cooperative cancellation).  An exception in `process`
/// stops the other participants at their next claim and then propagates
/// through the pool (first one wins, as with parallel_for).
template <typename T, typename Process, typename Stop>
void drain_queue(ThreadPool& pool, WorkQueue<T>& queue, Process&& process,
                 Stop&& stop) {
  std::atomic<bool> aborted{false};
  pool.parallel_invoke_all([&](std::size_t p) {
    T item;
    while (!queue.empty()) {
      if (aborted.load(std::memory_order_relaxed) || stop()) break;
      // A pop can miss only while a steal is moving items between shards;
      // the loop then retries.
      if (!queue.pop(p, item)) continue;
      // Injected scheduling stall (fault builds only): models a worker
      // descheduled between claiming an item and processing it.
      LAZYMC_FAULT_STALL("worker.stall", 2);
      try {
        process(p, item);
      } catch (...) {
        aborted.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  });
}

}  // namespace lazymc

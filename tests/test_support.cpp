// Tests for the parallel runtime, PRNG, spinlock, timer and solve control.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/control.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/spinlock.hpp"
#include "support/timer.hpp"

namespace lazymc {
namespace {

TEST(ThreadPool, RunsEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int count = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++count; });
  pool.parallel_for(7, 3, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(ThreadPool, RespectsGrainAndOffset) {
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, 110, [&](std::size_t i) { sum += i; }, 7);
  std::size_t expected = 0;
  for (std::size_t i = 10; i < 110; ++i) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::size_t count = 0;
  pool.parallel_for(0, 50, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 50u);
}

TEST(ThreadPool, NestedParallelForRunsSequentially) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    // Nested calls must not deadlock; they run inline.
    pool.parallel_for(0, 10, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, PropagatesExceptionsUnderContention) {
  // Regression: run_job used to read the job's stored exception without
  // taking its error lock.  Every worker throwing on every chunk makes
  // the store side maximally contended; each round must still rethrow
  // exactly one of the stored exceptions and leave the pool reusable.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    EXPECT_THROW(pool.parallel_for(0, 64,
                                   [&](std::size_t) {
                                     throw std::runtime_error("every chunk");
                                   },
                                   /*grain=*/1),
                 std::runtime_error);
  }
  // The pool must come out of the throwing rounds fully functional.
  std::atomic<int> total{0};
  pool.parallel_for(0, 64, [&](std::size_t) { total++; });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ParallelInvokeAllTouchesEveryParticipant) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(pool.num_threads());
  for (auto& h : hits) h.store(0);
  pool.parallel_invoke_all([&](std::size_t t) { hits[t]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 64, [&](std::size_t) { count++; });
    ASSERT_EQ(count.load(), 64);
  }
}

TEST(ParallelReduce, SumsCorrectly) {
  set_num_threads(4);
  std::uint64_t sum = parallel_reduce<std::uint64_t>(
      0, 10000, 0, [](std::size_t i) { return static_cast<std::uint64_t>(i); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(sum, 10000ull * 9999 / 2);
}

TEST(GlobalPool, SetNumThreadsTakesEffect) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3u);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1u);
  set_num_threads(4);
  EXPECT_EQ(num_threads(), 4u);
}

TEST(WorkQueue, LocalPopIsFifoPerShard) {
  WorkQueue<int> q(1);
  for (int i = 0; i < 10; ++i) q.push(0, i);
  EXPECT_EQ(q.size(), 10u);
  int out = -1;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.try_pop_local(0, out));
    EXPECT_EQ(out, i);  // priority order preserved
  }
  EXPECT_FALSE(q.try_pop_local(0, out));
  EXPECT_TRUE(q.empty());
}

TEST(WorkQueue, PushBatchAndShardWrapping) {
  WorkQueue<int> q(3);
  std::vector<int> batch{1, 2, 3, 4};
  q.push_batch(1, batch.begin(), batch.end());
  q.push(4, 99);  // shard index wraps modulo num_shards -> shard 1
  EXPECT_EQ(q.size(), 5u);
  int out = 0;
  ASSERT_TRUE(q.try_pop_local(4, out));
  EXPECT_EQ(out, 1);
}

TEST(WorkQueue, StealHalfTakesBackHalfAndKeepsLoot) {
  WorkQueue<int> q(2);
  for (int i = 0; i < 8; ++i) q.push(0, i);
  int out = -1;
  // Thief (shard 1) steals half of shard 0's 8 items: gets items 4..7,
  // returns the loot's highest-priority element (4), keeps 5..7.
  ASSERT_TRUE(q.pop(1, out));
  EXPECT_EQ(out, 4);
  EXPECT_EQ(q.size(), 7u);
  // The thief's next pops come from its own shard (the loot), in order.
  ASSERT_TRUE(q.try_pop_local(1, out));
  EXPECT_EQ(out, 5);
  // The victim still drains its front half in order.
  ASSERT_TRUE(q.try_pop_local(0, out));
  EXPECT_EQ(out, 0);
  // Every remaining item is still reachable exactly once.
  std::set<int> rest;
  while (q.pop(0, out)) rest.insert(out);
  EXPECT_EQ(rest, (std::set<int>{1, 2, 3, 6, 7}));
  EXPECT_TRUE(q.empty());
}

TEST(WorkQueue, AbandonedDrainLeavesQueueConsistent) {
  // A consumer that stops mid-drain (cancellation) must leave the queue
  // with an accurate size and every unclaimed item still poppable.
  WorkQueue<int> q(4);
  for (int i = 0; i < 100; ++i) q.push(i % 4, i);
  int out = -1;
  std::set<int> claimed;
  for (int i = 0; i < 37; ++i) {
    ASSERT_TRUE(q.pop(i % 4, out));
    ASSERT_TRUE(claimed.insert(out).second) << "duplicate item " << out;
  }
  EXPECT_EQ(q.size(), 63u);
  std::set<int> rest;
  while (q.pop(0, out)) {
    ASSERT_TRUE(rest.insert(out).second) << "duplicate item " << out;
  }
  EXPECT_EQ(claimed.size() + rest.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(claimed.count(i) + rest.count(i) == 1) << "lost item " << i;
  }
}

TEST(DrainQueue, EveryItemProcessedExactlyOnceWhileStealing) {
  // All items start in one shard, so the other participants get work only
  // by stealing; the drain must still hand out each item exactly once and
  // end only when nothing is left.
  ThreadPool pool(4);
  ASSERT_EQ(pool.num_threads(), 4u);
  WorkQueue<int> q(pool.num_threads());
  const int kItems = 2000;
  std::vector<int> items(kItems);
  std::iota(items.begin(), items.end(), 0);
  q.push_batch(0, items.begin(), items.end());
  std::vector<std::atomic<int>> seen(kItems);
  std::vector<std::atomic<int>> per_participant(pool.num_threads());
  drain_queue(
      pool, q,
      [&](std::size_t p, int& item) {
        seen[static_cast<std::size_t>(item)].fetch_add(1);
        per_participant[p].fetch_add(1);
      },
      [] { return false; });
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
  int total = 0;
  for (const auto& n : per_participant) total += n.load();
  EXPECT_EQ(total, kItems);
  EXPECT_TRUE(q.empty());
}

TEST(DrainQueue, StopPredicateAbandonsPendingWork) {
  ThreadPool pool(4);
  WorkQueue<int> q(pool.num_threads());
  for (int i = 0; i < 50; ++i) q.push(0, i);
  std::atomic<int> processed{0};
  std::atomic<bool> stop{false};
  drain_queue(
      pool, q,
      [&](std::size_t, int&) {
        processed.fetch_add(1);
        stop.store(true);  // cancel after the first few items
      },
      [&] { return stop.load(); });
  // Everyone bailed: the unclaimed items are still queued.
  EXPECT_LT(processed.load(), 50);
  EXPECT_EQ(q.size(), static_cast<std::size_t>(50 - processed.load()));
}

TEST(DrainQueue, ExceptionInProcessReleasesAllParticipants) {
  ThreadPool pool(4);
  WorkQueue<int> q(pool.num_threads());
  for (int i = 0; i < 200; ++i) q.push(i % pool.num_threads(), i);
  EXPECT_THROW(
      drain_queue(
          pool, q,
          [&](std::size_t, int& item) {
            if (item == 7) throw std::runtime_error("boom");
          },
          [] { return false; }),
      std::runtime_error);
  // The point is that this returns at all (no participant hangs after
  // the throwing one left).
}

TEST(WorkQueue, ConcurrentPushPopStealStress) {
  // Exercises push/pop/steal interleavings; run under TSan
  // (-DLAZYMC_SANITIZE=thread) to check the locking discipline.
  const std::size_t kThreads = 4;
  const int kPerThread = 5000;
  WorkQueue<int> q(kThreads);
  std::atomic<long long> popped_sum{0};
  std::atomic<std::size_t> popped_count{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) {
      }
      // Phase 1: every thread produces into its own shard (in batches)
      // while opportunistically consuming.
      std::vector<int> batch;
      for (int i = 0; i < kPerThread; ++i) {
        batch.push_back(static_cast<int>(t) * kPerThread + i);
        if (batch.size() == 64) {
          q.push_batch(t, batch.begin(), batch.end());
          batch.clear();
        }
        int out;
        if (i % 3 == 0 && q.pop(t, out)) {
          popped_sum.fetch_add(out);
          popped_count.fetch_add(1);
        }
      }
      q.push_batch(t, batch.begin(), batch.end());
      // Phase 2: drain (pop own shard, steal from the others).
      int out;
      while (q.pop(t, out)) {
        popped_sum.fetch_add(out);
        popped_count.fetch_add(1);
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  // Phase-2 drains can race each other to "empty" while another thread is
  // still pushing its tail batch, so sweep up any leftovers.
  int out;
  while (q.pop(0, out)) {
    popped_sum.fetch_add(out);
    popped_count.fetch_add(1);
  }
  const long long n = static_cast<long long>(kThreads) * kPerThread;
  EXPECT_EQ(popped_count.load(), static_cast<std::size_t>(n));
  EXPECT_EQ(popped_sum.load(), n * (n - 1) / 2);
  EXPECT_TRUE(q.empty());
}

TEST(ShardedRange, SkewedWorkStillCoversEveryIndex) {
  // Chunk stealing: participant 0's shard is much more expensive, so the
  // others must finish it; every index still runs exactly once.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4096);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) {
    if (i < hits.size() / 4) {
      // Simulate skew in the first shard.
      volatile int spin = 0;
      for (int s = 0; s < 50; ++s) spin = spin + s;
    }
    hits[i]++;
  }, 8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t bound = 1 + (i % 97);
    EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SpinLock, MutualExclusion) {
  SpinLock lock;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        SpinLockGuard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(SpinLock, TryLockReflectsState) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double e = timer.elapsed();
  EXPECT_GE(e, 0.015);
  EXPECT_LT(e, 5.0);
}

TEST(WallTimer, LapRestarts) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  double first = timer.lap();
  double second = timer.elapsed();
  EXPECT_GE(first, 0.005);
  EXPECT_LT(second, first);
}

TEST(SolveControl, NoLimitNeverStops) {
  SolveControl control;
  std::uint64_t counter = 0;
  for (int i = 0; i < 100000; ++i) {
    EXPECT_FALSE(control.should_stop(counter));
  }
}

TEST(SolveControl, CancelStopsImmediately) {
  SolveControl control;
  std::uint64_t counter = 0;
  EXPECT_FALSE(control.should_stop(counter));
  control.cancel();
  EXPECT_TRUE(control.should_stop(counter));
  EXPECT_TRUE(control.cancelled());
}

TEST(SolveControl, TimeLimitExpires) {
  SolveControl control(0.02);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  std::uint64_t counter = 0;
  bool stopped = false;
  for (int i = 0; i < 100000 && !stopped; ++i) {
    stopped = control.should_stop(counter);
  }
  EXPECT_TRUE(stopped);
}

}  // namespace
}  // namespace lazymc

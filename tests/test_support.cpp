// Tests for the parallel runtime, PRNG, spinlock, timer and solve control.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
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

TEST(GlobalPool, SetNumThreadsTakesEffect) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3u);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1u);
  set_num_threads(4);
  EXPECT_EQ(num_threads(), 4u);
}

TEST(DrainInOrder, EveryIndexRunsExactlyOnceUnderSkew) {
  // The first quarter of the indices is much more expensive, so whoever
  // claims them falls behind and the others must take the rest; every
  // index still runs exactly once, on a valid participant.
  ThreadPool pool(4);
  ASSERT_EQ(pool.num_threads(), 4u);
  const std::size_t kCount = 2000;
  std::vector<std::atomic<int>> seen(kCount);
  std::vector<std::atomic<int>> per_participant(pool.num_threads());
  drain_in_order(
      pool, kCount,
      [&](std::size_t p, std::size_t i) {
        if (i < kCount / 4) {
          volatile int spin = 0;
          for (int s = 0; s < 2000; ++s) spin = spin + s;
        }
        seen[i].fetch_add(1);
        per_participant.at(p).fetch_add(1);
      },
      [] { return false; });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "index " << i;
  }
  int total = 0;
  for (const auto& n : per_participant) total += n.load();
  EXPECT_EQ(total, static_cast<int>(kCount));
}

TEST(DrainInOrder, OneParticipantVisitsIndicesInOrder) {
  // The priority contract: callers list their work highest priority
  // first, and a 1-thread drain visits it in exactly that order.
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  drain_in_order(
      pool, 100,
      [&](std::size_t p, std::size_t i) {
        EXPECT_EQ(p, 0u);
        order.push_back(i);
      },
      [] { return false; });
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(DrainInOrder, FirstClaimsAreTheFirstIndicesAtFourThreads) {
  // Each participant holds its first index until all four have one, so
  // the four first claims are made before any second claim.  From one
  // shared cursor they are indices 0..3; contiguous per-participant
  // slices would hand out 0, 100, 200 and 300.
  ThreadPool pool(4);
  const std::size_t parts = pool.num_threads();
  std::vector<std::atomic<int>> seen(100 * parts);
  std::vector<std::size_t> first(parts, seen.size());
  std::atomic<std::size_t> arrived{0};
  drain_in_order(
      pool, seen.size(),
      [&](std::size_t p, std::size_t i) {
        if (first[p] == seen.size()) {
          first[p] = i;
          arrived.fetch_add(1);
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (arrived.load() < parts &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        }
        seen[i].fetch_add(1);
      },
      [] { return false; });
  std::sort(first.begin(), first.end());
  EXPECT_EQ(first, (std::vector<std::size_t>{0, 1, 2, 3}));
  for (auto& h : seen) EXPECT_EQ(h.load(), 1);
}

TEST(DrainInOrder, StopPredicateAbandonsRemainingIndices) {
  ThreadPool pool(4);
  const std::size_t kCount = 200;
  std::vector<std::atomic<int>> seen(kCount);
  std::atomic<bool> stop{false};
  drain_in_order(
      pool, kCount,
      [&](std::size_t, std::size_t i) {
        seen[i].fetch_add(1);
        if (i == 3) stop.store(true);
      },
      [&] { return stop.load(); });
  int processed = 0;
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_LE(seen[i].load(), 1) << "index " << i << " ran twice";
    processed += seen[i].load();
  }
  // Index 3 ran, and each participant stops at its next claim.
  EXPECT_EQ(seen[3].load(), 1);
  EXPECT_LT(processed, static_cast<int>(kCount));
}

TEST(DrainInOrder, ExceptionPropagatesAndPoolStaysUsable) {
  // The throw poisons the cursor, so the other participants stop at their
  // next claim; the drain must return (no participant hangs) and rethrow.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(
        drain_in_order(
            pool, 1000,
            [&](std::size_t, std::size_t i) {
              if (i == 7) throw std::runtime_error("boom");
            },
            [] { return false; }),
        std::runtime_error);
  }
  std::atomic<int> total{0};
  drain_in_order(
      pool, 64, [&](std::size_t, std::size_t) { total++; },
      [] { return false; });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, SkewedWorkStillCoversEveryIndex) {
  // The first quarter of the range is much more expensive, so whoever
  // claims those chunks falls behind and the others take the rest; every
  // index still runs exactly once.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4096);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) {
    if (i < hits.size() / 4) {
      volatile int spin = 0;
      for (int s = 0; s < 50; ++s) spin = spin + s;
    }
    hits[i]++;
  }, 8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForFirstClaimsAreTheFirstChunks) {
  // parallel_for hands out chunks in index order from one cursor.  Each
  // participant holds its first chunk until all four hold one, so no
  // participant can claim twice before every one has claimed once: the
  // four first chunks must then be exactly the first 4 * grain indices.
  ThreadPool pool(4);
  ASSERT_EQ(pool.num_threads(), 4u);
  constexpr std::size_t kGrain = 16;
  constexpr std::size_t kCount = 4 * kGrain * 8;
  std::mutex mutex;
  std::set<std::thread::id> holders;
  std::set<std::size_t> first_chunks;
  std::atomic<std::size_t> held{0};
  std::atomic<std::size_t> visited{0};
  pool.parallel_for(0, kCount, [&](std::size_t i) {
    visited++;
    if (i % kGrain != 0) return;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!holders.insert(std::this_thread::get_id()).second) return;
      first_chunks.insert(i);
    }
    held++;
    // Bounded wait, so a scheduler that starves a participant fails the
    // check below instead of hanging the test.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (held.load() < 4 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }, kGrain);
  EXPECT_EQ(visited.load(), kCount);
  EXPECT_EQ(held.load(), 4u);
  EXPECT_EQ(first_chunks,
            (std::set<std::size_t>{0, kGrain, 2 * kGrain, 3 * kGrain}));
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

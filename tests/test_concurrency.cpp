// Concurrency stress tests: the shared lazy graph, the incumbent, and the
// full pipeline under varying thread counts and repeated runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string_view>
#include <thread>

#include "baselines/reference.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/lazymc.hpp"
#include "mc/neighbor_search.hpp"
#include "support/control.hpp"
#include "support/faultinject.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

namespace lazymc {
namespace {

TEST(ConcurrencyStress, RepeatedParallelSolvesAreDeterministicInOmega) {
  Graph g = gen::plant_clique(gen::rmat(9, 6, 0.55, 0.2, 0.2, 201), 12, 202);
  auto ref = baselines::max_clique_reference(g);
  set_num_threads(4);
  for (int round = 0; round < 20; ++round) {
    auto r = mc::lazy_mc(g);
    ASSERT_EQ(r.omega, ref.size()) << "round " << round;
    ASSERT_TRUE(is_clique(g, r.clique));
  }
  set_num_threads(0);
}

TEST(ConcurrencyStress, LazyGraphMixedReadersAndBuilders) {
  Graph g = gen::gnp(300, 0.05, 203);
  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  std::atomic<VertexId> incumbent{0};
  LazyGraph lazy(g, order, core.coreness, &incumbent);
  // Rows are built concurrently below, so right_neighbors reads a head's
  // row or the base graph depending on whether its build won the race.
  lazy.enable_bitset_rows(std::size_t{1} << 20);
  std::vector<std::vector<VertexId>> expected_right(300);
  for (VertexId v = 0; v < 300; ++v) {
    for (VertexId u : g.neighbors(order.new_to_orig[v])) {
      if (order.orig_to_new[u] > v) {
        expected_right[v].push_back(order.orig_to_new[u]);
      }
    }
    std::sort(expected_right[v].begin(), expected_right[v].end());
  }

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      std::vector<VertexId> right;
      for (int i = 0; i < 4000; ++i) {
        VertexId v = static_cast<VertexId>(rng.next_below(300));
        switch (i % 4) {
          case 0: {
            const HopscotchSet& h = lazy.hashed_neighborhood(v);
            auto s = lazy.sorted_neighborhood(v);
            if (h.size() != s.size()) errors++;
            break;
          }
          case 1: {
            lazy.right_neighbors(v, 0, right);
            if (right != expected_right[v]) errors++;
            break;
          }
          case 2: {
            NeighborhoodView view = lazy.membership(v);
            // Probe an arbitrary vertex; just must not crash/race.
            view.contains(static_cast<VertexId>(rng.next_below(300)));
            break;
          }
          case 3: {
            BitsetRow row = lazy.bitset_row(v);
            if (!row.valid()) errors++;
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(ConcurrencyStress, RowBuildsStopExactlyAtTheBudget) {
  constexpr VertexId kN = 300;
  constexpr std::size_t kRows = 100;  // the budget, in rows (< the zone)
  Graph g = gen::gnp(kN, 0.05, 204);
  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  std::atomic<VertexId> incumbent{0};
  LazyGraph lazy(g, order, core.coreness, &incumbent);
  // Rows are built by bitset_row below; the hash rep makes membership()
  // answer the rest through hash sets.
  lazy.set_preferred_rep(NeighborhoodRep::kHash);
  // With no incumbent the zone is every vertex.  The budget pays for the
  // per-vertex bookkeeping (a row pointer and a popcount each) plus
  // exactly kRows rows at the 64-byte-aligned stride.
  const std::size_t stride_bytes = ((kN + 63) / 64 + 7) / 8 * 64;
  lazy.enable_bitset_rows(kN * (sizeof(std::uint64_t*) + 4) +
                          kRows * stride_bytes);
  ASSERT_TRUE(lazy.bitset_enabled());
  ASSERT_EQ(lazy.zone_begin(), 0u);
  ASSERT_EQ(lazy.zone_size(), kN);

  // Eight threads race to build every row, each from its own start.
  std::vector<std::thread> threads;
  for (VertexId t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (VertexId i = 0; i < kN; ++i) {
        (void)lazy.bitset_row((i + t * 37) % kN);
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto stats = lazy.stats();
  EXPECT_EQ(stats.bitset_built, kRows);
  EXPECT_EQ(stats.bitset_bytes, kRows * stride_bytes);
  std::size_t built = 0;
  for (VertexId v = 0; v < kN; ++v) {
    std::vector<VertexId> expected;
    for (VertexId u : g.neighbors(order.new_to_orig[v])) {
      expected.push_back(order.orig_to_new[u]);
    }
    std::sort(expected.begin(), expected.end());
    NeighborhoodView view = lazy.membership(v);
    if (lazy.has_bitset(v)) {
      ++built;
      ASSERT_TRUE(view.has_bitset());
      std::vector<VertexId> bits;
      for (VertexId u = 0; u < kN; ++u) {
        if (view.bitset().contains(u)) bits.push_back(u);
      }
      EXPECT_EQ(bits, expected) << "row of " << v;
      EXPECT_EQ(view.bitset().size(), expected.size());
    } else {
      // Past the budget, the vertex answers through a hash set.
      EXPECT_FALSE(view.has_bitset()) << v;
      EXPECT_TRUE(view.is_hashed()) << v;
      EXPECT_EQ(view.size(), expected.size()) << v;
      for (VertexId u : expected) EXPECT_TRUE(view.contains(u)) << v;
    }
  }
  EXPECT_EQ(built, kRows);
}

// Under auto, threads asking about the same vertices with different
// candidate-set sizes race to turn hubs into rows (while a small budget
// lasts) or hash sets (once it is spent, and with rows off), while other
// askers read the same vertices' CSR views.  Every view must answer
// every edge exactly.
TEST(ConcurrencyStress, HubViewsBuiltConcurrentlyAnswerExactly) {
  constexpr VertexId kN = 600;
  Graph g = gen::barabasi_albert(kN, 6, 205);
  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  for (const bool rows : {false, true}) {
    std::atomic<VertexId> incumbent{0};
    LazyGraph lazy(g, order, core.coreness, &incumbent);
    if (rows) {
      // Room for about 20 rows: the zone is every vertex.
      lazy.enable_bitset_rows(kN * (sizeof(std::uint64_t*) + 4) + 20 * 128);
      ASSERT_TRUE(lazy.bitset_enabled());
    }
    std::atomic<int> errors{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(2000 + t);
        for (int i = 0; i < 3000; ++i) {
          const auto v = static_cast<VertexId>(rng.next_below(kN));
          const auto u = static_cast<VertexId>(rng.next_below(kN));
          const NeighborhoodView view =
              lazy.membership(v, 1 + rng.next_below(12));
          const bool edge =
              g.has_edge(order.new_to_orig[v], order.new_to_orig[u]);
          if (view.contains(u) != edge) errors++;
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(errors.load(), 0) << "rows=" << rows;
    const auto stats = lazy.stats();
    EXPECT_GT(stats.hash_built, 0u) << "rows=" << rows;
    EXPECT_EQ(stats.sorted_built, 0u);
    if (rows) {
      EXPECT_GT(stats.bitset_built, 0u);
    }
  }
}

TEST(ConcurrencyStress, IncumbentMonotoneUnderContention) {
  Incumbent inc;
  std::atomic<bool> go{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) {
      }
      Rng rng(t);
      VertexId seen = 0;
      for (int i = 0; i < 20000; ++i) {
        VertexId size = inc.size();
        if (size < seen) errors++;  // monotonicity violated
        seen = size;
        std::vector<VertexId> clique(rng.next_below(64) + 1);
        for (std::size_t j = 0; j < clique.size(); ++j) {
          clique[j] = static_cast<VertexId>(j);
        }
        inc.offer(clique);
      }
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(inc.size(), 64u);
  // Snapshot is consistent with the size.
  EXPECT_EQ(inc.snapshot().size(), inc.size());
}

TEST(ConcurrencyStress, SystematicSearchSharedStatsConsistent) {
  Graph g = gen::gnp(200, 0.12, 205);
  set_num_threads(4);
  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  Incumbent incumbent;
  LazyGraph lazy(g, order, core.coreness, &incumbent.size_atomic());
  mc::SearchStats stats;
  mc::NeighborSearchOptions opt;
  mc::systematic_search(lazy, incumbent, opt, stats);
  // Funnel invariants must hold even with concurrent updates.
  EXPECT_GE(stats.evaluated.load(), stats.pass_filter1.load());
  EXPECT_GE(stats.pass_filter1.load(), stats.pass_filter2.load());
  EXPECT_GE(stats.pass_filter2.load(), stats.pass_filter3.load());
  EXPECT_EQ(stats.pass_filter3.load(),
            stats.solved_mc.load() + stats.solved_vc.load());
  auto ref = baselines::max_clique_reference(g);
  EXPECT_EQ(incumbent.size(), ref.size());
  set_num_threads(0);
}

TEST(ConcurrencyStress, OmegaIdenticalAcrossThreadCountsForWholeSuite) {
  // The ordered-worklist drain must not change the answer: omega is
  // exact, so 1, 2 and 8 threads have to agree on every suite instance.
  auto instances = suite::make_suite(suite::Scale::kTiny);
  for (const auto& inst : instances) {
    VertexId omega1 = 0;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      set_num_threads(threads);
      auto r = mc::lazy_mc(inst.graph);
      ASSERT_TRUE(is_clique(inst.graph, r.clique))
          << inst.name << " @ " << threads << " threads";
      if (threads == 1) {
        omega1 = r.omega;
      } else {
        ASSERT_EQ(r.omega, omega1)
            << inst.name << ": omega diverged at " << threads << " threads";
      }
    }
  }
  set_num_threads(0);
}

TEST(ConcurrencyStress, SystematicSearchReportsRetiredChunksSanely) {
  // retired_chunks counts worklist chunks skipped wholesale when the
  // incumbent outgrew their coreness level; it can never exceed the
  // number of chunks, and the search must stay exact regardless.
  Graph g = gen::plant_clique(gen::barabasi_albert(2000, 6, 301), 24, 302);
  set_num_threads(4);
  auto r = mc::lazy_mc(g);
  auto ref = baselines::max_clique_reference(g);
  EXPECT_EQ(r.omega, ref.size());
  // Chunks are disjoint non-empty vertex ranges, so their count — and a
  // fortiori the retired count — is bounded by the vertex count.
  EXPECT_LE(r.search.retired_chunks, g.num_vertices());
  set_num_threads(0);
}

TEST(ConcurrencyStress, CancellationDuringParallelSearchUnwinds) {
  Graph g = gen::gene_blocks(400, 10, 130, 0.8, 207);
  set_num_threads(4);
  mc::LazyMCConfig cfg;
  cfg.time_limit_seconds = 0.05;  // expire mid-run
  auto r = mc::lazy_mc(g, cfg);
  // Either finished legitimately fast or unwound cleanly with the flag.
  if (r.timed_out) {
    EXPECT_TRUE(is_clique(g, r.clique));  // best-so-far is still a clique
  } else {
    EXPECT_TRUE(is_clique(g, r.clique));
  }
  set_num_threads(0);
}

// ---- per-worker counter blocks -------------------------------------------
// Workers count into private tallies that the search flushes into the
// caller's SearchStats and KernelCounters once, as it returns.  These tests
// pin the flushed totals: exact at one thread, consistent at four, and
// present on the cancel and exception paths.

/// A lazy graph over `g` in (coreness, degree) order with bitset rows over
/// the whole graph, so the filters run the word kernels.
struct CountedSearch {
  explicit CountedSearch(const Graph& g)
      : core(kcore::coreness(g)),
        order(kcore::order_by_coreness_degree(g, core.coreness)),
        lazy(g, order, core.coreness, &incumbent.size_atomic()) {
    lazy.enable_bitset_rows(std::size_t{1} << 24);
    options.intersect.counters = &stats.kernels;
  }

  kcore::CoreDecomposition core;
  kcore::VertexOrder order;
  Incumbent incumbent;
  LazyGraph lazy;
  mc::SearchStats stats;
  mc::NeighborSearchOptions options;
};

Graph counter_graph() {
  return gen::plant_clique(gen::gnp(400, 0.08, 411), 16, 412);
}

TEST(WorkerCounters, OneThreadTotalsEqualASequentialLoop) {
  const Graph g = counter_graph();
  set_num_threads(1);
  CountedSearch drained(g);
  mc::systematic_search(drained.lazy, drained.incumbent, drained.options,
                        drained.stats);

  // The 1-thread drain visits its worklist in order: one probe vertex per
  // coreness level from |C*| (here 0) upward, then every level from the
  // top down without its probe.  Replay that order with one
  // neighbor_search call per vertex, each flushed on its own.
  CountedSearch looped(g);
  std::map<VertexId, std::pair<VertexId, VertexId>> levels;  // [first, end)
  for (VertexId v = 0; v < looped.lazy.num_vertices(); ++v) {
    auto [it, fresh] = levels.try_emplace(looped.lazy.coreness(v), v, v);
    it->second.second = v + 1;
  }
  std::vector<VertexId> visit;
  for (const auto& [k, range] : levels) visit.push_back(range.first);
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    for (VertexId v = it->second.first + 1; v < it->second.second; ++v) {
      visit.push_back(v);
    }
  }
  mc::SearchScratch scratch;
  for (VertexId v : visit) {
    if (looped.lazy.coreness(v) >= looped.incumbent.size()) {
      mc::neighbor_search(looped.lazy, v, looped.incumbent, looped.options,
                          looped.stats, scratch);
    }
  }

  EXPECT_EQ(drained.incumbent.size(), looped.incumbent.size());
  const mc::SearchStats& a = drained.stats;
  const mc::SearchStats& b = looped.stats;
  // The loop has no worklist chunks to retire; a retired chunk's vertices
  // all fail the per-vertex coreness check, so nothing else differs.
#define LAZYMC_EXPECT_SAME(name)                              \
  if (std::string_view(#name) != "retired_chunks") {          \
    EXPECT_EQ(a.name.load(), b.name.load()) << #name;         \
  }
  LAZYMC_SEARCH_COUNTERS(LAZYMC_EXPECT_SAME)
#undef LAZYMC_EXPECT_SAME
#define LAZYMC_EXPECT_SAME(name) \
  EXPECT_EQ(a.kernels.name.load(), b.kernels.name.load()) << #name;
  LAZYMC_KERNEL_COUNTERS(LAZYMC_EXPECT_SAME)
#undef LAZYMC_EXPECT_SAME
  EXPECT_EQ(b.retired_chunks.load(), 0u);
  // The comparison is not vacuous: the search ran the word kernels.
  EXPECT_GT(a.evaluated.load(), 0u);
  EXPECT_GT(a.pass_filter3.load(), 0u);
  EXPECT_GT(a.kernels.bitset_word.load(), 0u);
  set_num_threads(0);
}

TEST(WorkerCounters, FourThreadTotalsKeepTheirInvariants) {
  const Graph g = counter_graph();
  set_num_threads(4);
  CountedSearch f(g);
  mc::systematic_search(f.lazy, f.incumbent, f.options, f.stats);
  const mc::SearchStats& s = f.stats;
  EXPECT_LE(s.pass_filter3.load(), s.pass_filter2.load());
  EXPECT_LE(s.pass_filter2.load(), s.pass_filter1.load());
  EXPECT_LE(s.pass_filter1.load(), s.evaluated.load());
  EXPECT_LE(s.evaluated.load(), g.num_vertices());
  EXPECT_GT(s.kernels.bitset_word.load(), 0u);
  EXPECT_EQ(f.incumbent.size(), baselines::max_clique_reference(g).size());

  // The full pipeline also counts the coreness heuristic's intersections.
  const auto r = mc::lazy_mc(g);
  EXPECT_LE(r.search.pass_filter3, r.search.pass_filter2);
  EXPECT_LE(r.search.pass_filter2, r.search.pass_filter1);
  EXPECT_LE(r.search.pass_filter1, r.search.evaluated);
  set_num_threads(0);
}

TEST(WorkerCounters, TimedOutSearchStillReportsItsCounts) {
  // The limit has passed before the search starts, so the first solver
  // call that checks it cancels the search; the drain then winds down
  // through the cancel path, which must still flush the tallies.
  const Graph g = counter_graph();
  set_num_threads(4);
  CountedSearch f(g);
  SolveControl control(1e-9);
  f.options.control = &control;
  mc::systematic_search(f.lazy, f.incumbent, f.options, f.stats);
  EXPECT_TRUE(control.cancelled());
  EXPECT_GT(f.stats.evaluated.load(), 0u);
  EXPECT_LE(f.stats.pass_filter1.load(), f.stats.evaluated.load());
  set_num_threads(0);
}

TEST(WorkerCounters, InjectedWorkerFaultLeavesCountsAndPoolUsable) {
  if (!faults::enabled()) GTEST_SKIP() << "needs -DLAZYMC_FAULTS=ON";
  const Graph g = counter_graph();
  const auto best = baselines::max_clique_reference(g);
  set_num_threads(4);
  faults::reset();
  faults::configure("worker.exec=nth:1");
  {
    CountedSearch failed(g);
    SolveControl control;
    failed.options.control = &control;
    EXPECT_THROW(mc::systematic_search(failed.lazy, failed.incumbent,
                                       failed.options, failed.stats),
                 faults::InjectedFault);
    EXPECT_LE(failed.stats.evaluated.load(), g.num_vertices());
  }
  faults::reset();

  // Same pool, fresh solve.  With the optimum already in the incumbent
  // nothing improves, so every vertex whose coreness reaches omega is
  // evaluated exactly once at any thread count: a total carried over from
  // the failed solve would show.
  CountedSearch next(g);
  next.incumbent.offer(best);
  const auto omega = static_cast<VertexId>(best.size());
  std::uint64_t expected = 0;
  for (VertexId v = 0; v < next.lazy.num_vertices(); ++v) {
    expected += next.lazy.coreness(v) >= omega ? 1 : 0;
  }
  mc::systematic_search(next.lazy, next.incumbent, next.options, next.stats);
  EXPECT_EQ(next.stats.evaluated.load(), expected);
  EXPECT_EQ(next.stats.retired_chunks.load(), 0u);
  EXPECT_EQ(next.incumbent.size(), omega);
  set_num_threads(0);
}

}  // namespace
}  // namespace lazymc

// Suite-wide correctness of the zone rows: omega must be identical with
// bitset rows forced on, rows forced off, and rows chosen adaptively, at
// 1, 2 and 8 threads; under auto no hash set or sorted array is built on
// the medium suite, and a rows-off auto solve matches the reference —
// plus unit coverage of the zone/budget semantics of enable_bitset_rows.
#include <gtest/gtest.h>

#include <atomic>

#include "baselines/reference.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "mc/lazymc.hpp"
#include "support/control.hpp"
#include "support/parallel.hpp"

namespace lazymc {
namespace {

class RepSweepTest : public testing::TestWithParam<std::string> {
 protected:
  void TearDown() override { set_num_threads(0); }
};

TEST_P(RepSweepTest, OmegaIdenticalWithBitsetRowsOnAndOff) {
  auto inst = suite::make_instance(GetParam(), suite::Scale::kTiny);
  const Graph& g = inst.graph;

  set_num_threads(1);
  mc::LazyMCConfig off;
  off.neighborhood_rep = NeighborhoodRep::kHash;  // rows disabled entirely
  const auto baseline = mc::lazy_mc(g, off);
  ASSERT_TRUE(is_clique(g, baseline.clique));

  for (std::size_t threads : {1, 2, 8}) {
    set_num_threads(threads);
    for (NeighborhoodRep rep : {NeighborhoodRep::kBitset,
                                NeighborhoodRep::kAuto,
                                NeighborhoodRep::kHash}) {
      mc::LazyMCConfig cfg;
      cfg.neighborhood_rep = rep;
      auto r = mc::lazy_mc(g, cfg);
      EXPECT_EQ(r.omega, baseline.omega)
          << GetParam() << " threads=" << threads
          << " rep=" << static_cast<int>(rep);
      EXPECT_TRUE(is_clique(g, r.clique));
      EXPECT_FALSE(r.timed_out);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllInstances, RepSweepTest,
                         testing::ValuesIn(suite::instance_names()),
                         [](const testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(RepSweep, TinyBudgetStillCorrect) {
  // A 1 KB budget can hold almost no rows; dispatch must degrade to the
  // CSR kernels per vertex without changing omega.
  auto inst = suite::make_instance("webcc", suite::Scale::kTiny);
  mc::LazyMCConfig base;
  auto expected = mc::lazy_mc(inst.graph, base).omega;

  mc::LazyMCConfig tiny;
  tiny.neighborhood_rep = NeighborhoodRep::kBitset;
  tiny.bitset_budget_bytes = 1024;
  EXPECT_EQ(mc::lazy_mc(inst.graph, tiny).omega, expected);

  mc::LazyMCConfig zero;
  zero.neighborhood_rep = NeighborhoodRep::kAuto;
  zero.bitset_budget_bytes = 0;  // rows disabled
  EXPECT_EQ(mc::lazy_mc(inst.graph, zero).omega, expected);
}

TEST(RepSweep, BitsetRepReportsWordKernelDispatch) {
  // An instance whose systematic phase does real work must route filter
  // intersections through the word-parallel kernel when rows are forced.
  auto inst = suite::make_instance("webcc", suite::Scale::kSmall);
  mc::LazyMCConfig cfg;
  cfg.neighborhood_rep = NeighborhoodRep::kBitset;
  auto r = mc::lazy_mc(inst.graph, cfg);
  ASSERT_GT(r.search.evaluated, 0u);
  EXPECT_GT(r.search.kernel_bitset_word, 0u);
  EXPECT_GT(r.lazy_graph.bitset_built, 0u);
  EXPECT_GT(r.lazy_graph.bitset_bytes, 0u);
  EXPECT_GT(r.lazy_graph.zone_size, 0u);
}

TEST(RepSweep, StarvedBitsetBudgetBuildsPartOfTheZone) {
  // A budget that holds about half of the rows an unconstrained run
  // builds: rows must stop mid-zone within the budget, the rest of the
  // zone falls back to CSR views, and omega must not move.  The random
  // graph has coreness high everywhere, so the zone covers most of it.
  const Graph g = gen::gnp(4000, 0.008, 4242);

  mc::LazyMCConfig unconstrained;
  unconstrained.neighborhood_rep = NeighborhoodRep::kBitset;
  const auto full = mc::lazy_mc(g, unconstrained);
  const std::size_t zone = full.lazy_graph.zone_size;
  ASSERT_GT(zone, 0u);
  ASSERT_GT(full.lazy_graph.bitset_built, 0u);

  const std::size_t bookkeeping =
      zone * (sizeof(std::uint64_t*) + sizeof(std::uint32_t));
  const std::size_t budget = bookkeeping + full.lazy_graph.bitset_bytes / 2;
  mc::LazyMCConfig starved = unconstrained;
  starved.bitset_budget_bytes = budget;
  const auto r = mc::lazy_mc(g, starved);

  EXPECT_GT(r.lazy_graph.bitset_built, 0u);
  EXPECT_LT(r.lazy_graph.bitset_built, full.lazy_graph.bitset_built);
  EXPECT_LE(r.lazy_graph.bitset_bytes, budget - bookkeeping);
  EXPECT_EQ(r.omega, full.omega);
}

// Under --rep auto nothing builds a hash set or a sorted array: a vertex
// without a zone row answers from the CSR.  On every medium suite graph,
// at 1 and 4 threads, none is built and omega matches the reference
// solver.  The reference gets one second per graph; flickr, WormNet,
// mouse and human-1 need longer, so there omega must be at least the
// reference's best clique and agree across thread counts (the
// golden_counters ctest pins their 1-thread omega).
TEST(RepSweepMedium, AutoBuildsNoSetsAndMatchesReference) {
  for (const std::string& name : suite::instance_names()) {
    const auto inst = suite::make_instance(name, suite::Scale::kMedium);
    const Graph& g = inst.graph;
    set_num_threads(1);
    SolveControl control(1.0);
    bool ref_timed_out = false;
    const std::size_t ref =
        baselines::max_clique_reference(g, &control, &ref_timed_out).size();
    VertexId omega_t1 = 0;
    for (std::size_t threads : {1, 4}) {
      set_num_threads(threads);
      const auto r = mc::lazy_mc(g);
      const std::string where = name + " threads=" + std::to_string(threads);
      EXPECT_EQ(r.lazy_graph.hash_built, 0u) << where;
      EXPECT_EQ(r.lazy_graph.sorted_built, 0u) << where;
      EXPECT_TRUE(is_clique(g, r.clique)) << where;
      if (ref_timed_out) {
        EXPECT_GE(r.omega, ref) << where;
      } else {
        EXPECT_EQ(r.omega, ref) << where;
      }
      if (threads == 1) omega_t1 = r.omega;
      EXPECT_EQ(r.omega, omega_t1) << where;
    }
  }
  set_num_threads(0);
}

// Rows off (--bitset-budget-mb 0) under auto: every candidate reads the
// CSR, or a hash set when it is a hub for its query, so the filters, the
// pairwise extraction and the coreness heuristic run on those two views
// alone.  omega must match the reference, and both views must be used.
TEST(RepSweep, RowsOffAutoSolveMatchesReference) {
  std::uint64_t csr_scans = 0;
  std::uint64_t hub_sets = 0;   // hash sets of row-less hubs
  std::uint64_t extracted = 0;  // heads whose subgraph was extracted
  std::vector<Graph> graphs;
  for (const std::string& name : suite::instance_names()) {
    graphs.push_back(suite::make_instance(name, suite::Scale::kTiny).graph);
  }
  for (const char* name : {"webcc", "talk", "sinaweibo"}) {
    graphs.push_back(suite::make_instance(name, suite::Scale::kSmall).graph);
  }
  for (std::uint64_t seed : {11, 12, 13}) {
    graphs.push_back(gen::gnp(150, 0.25, seed));
  }
  for (const Graph& g : graphs) {
    const std::size_t ref = baselines::max_clique_reference(g).size();
    for (std::size_t threads : {1, 4}) {
      set_num_threads(threads);
      mc::LazyMCConfig cfg;
      cfg.bitset_budget_bytes = 0;
      const auto r = mc::lazy_mc(g, cfg);
      EXPECT_EQ(r.omega, ref) << "threads=" << threads;
      EXPECT_TRUE(is_clique(g, r.clique));
      EXPECT_EQ(r.lazy_graph.zone_size, 0u);
      EXPECT_EQ(r.lazy_graph.sorted_built, 0u);
      csr_scans += r.search.kernel_csr_scan;
      hub_sets += r.lazy_graph.hash_built;
      extracted += r.search.pass_filter3;
    }
  }
  set_num_threads(0);
  EXPECT_GT(csr_scans, 0u);
  EXPECT_GT(hub_sets, 0u);
  EXPECT_GT(extracted, 0u);
}

// ---- LazyGraph zone / budget unit tests -----------------------------------

struct ZoneFixture {
  Graph g;
  kcore::CoreDecomposition core;
  kcore::VertexOrder order;
  std::atomic<VertexId> incumbent{0};

  explicit ZoneFixture(Graph graph) : g(std::move(graph)) {
    core = kcore::coreness(g);
    order = kcore::order_by_coreness_degree(g, core.coreness);
  }
  LazyGraph make() { return LazyGraph(g, order, core.coreness, &incumbent); }
};

TEST(LazyGraphBitset, RowMatchesSortedNeighborhoodWithinZone) {
  ZoneFixture f(gen::gnp(80, 0.3, 555));
  f.incumbent.store(3);
  LazyGraph lazy = f.make();
  lazy.enable_bitset_rows(1 << 20);
  ASSERT_TRUE(lazy.bitset_enabled());
  const VertexId zb = lazy.zone_begin();
  for (VertexId v = zb; v < lazy.num_vertices(); ++v) {
    BitsetRow row = lazy.bitset_row(v);
    ASSERT_TRUE(row.valid());
    EXPECT_TRUE(lazy.has_bitset(v));
    // Built at the same incumbent, the row is exactly the sorted filtered
    // neighborhood clipped to the zone.
    auto sorted = lazy.sorted_neighborhood(v);
    std::size_t in_zone = 0;
    for (VertexId u : sorted) {
      if (u >= zb) {
        EXPECT_TRUE(row.contains(u)) << v << " " << u;
        ++in_zone;
      } else {
        EXPECT_FALSE(row.contains(u));
      }
    }
    EXPECT_EQ(row.size(), in_zone);
  }
}

TEST(LazyGraphBitset, BudgetBelowBookkeepingDisablesRows) {
  ZoneFixture f(gen::gnp(100, 0.3, 559));
  LazyGraph lazy = f.make();
  // The O(zone) bookkeeping alone exceeds a 64-byte budget: rows stay off.
  lazy.enable_bitset_rows(/*budget_bytes=*/64);
  EXPECT_FALSE(lazy.bitset_enabled());
  EXPECT_FALSE(lazy.bitset_row(0).valid());
}

TEST(LazyGraphBitset, BudgetExhaustionFallsBackGracefully) {
  ZoneFixture f(gen::gnp(100, 0.3, 556));
  LazyGraph lazy = f.make();
  // zone = 100 bits -> 2 words (16 bytes) per row.  Grant the bookkeeping
  // plus one word: no complete row fits, so the first build exhausts.
  const std::size_t bookkeeping =
      100 * (sizeof(std::uint64_t*) + sizeof(std::uint32_t));
  lazy.enable_bitset_rows(bookkeeping + 8);
  ASSERT_TRUE(lazy.bitset_enabled());
  EXPECT_FALSE(lazy.bitset_row(0).valid());
  EXPECT_FALSE(lazy.has_bitset(0));
  // membership still produces a usable view.
  NeighborhoodView view = lazy.membership(0);
  EXPECT_FALSE(view.has_bitset());
  EXPECT_GT(view.size(), 0u);
  EXPECT_EQ(lazy.stats().bitset_built, 0u);
}

TEST(LazyGraphBitset, DisabledAndOutOfZoneRowsAreInvalid) {
  ZoneFixture f(gen::gnp(40, 0.3, 557));
  {
    LazyGraph lazy = f.make();
    EXPECT_FALSE(lazy.bitset_enabled());
    EXPECT_FALSE(lazy.bitset_row(0).valid());
    EXPECT_EQ(lazy.stats().zone_size, 0u);
  }
  // Raise the incumbent so part of the graph falls outside the zone.
  ZoneFixture f2(gen::graph_union(gen::complete(8), gen::star(30)));
  f2.incumbent.store(5);
  LazyGraph lazy = f2.make();
  lazy.enable_bitset_rows(1 << 20);
  ASSERT_TRUE(lazy.bitset_enabled());
  ASSERT_GT(lazy.zone_begin(), 0u);
  EXPECT_FALSE(lazy.bitset_row(0).valid());  // leaf: below the zone
  BitsetRow in_zone = lazy.bitset_row(lazy.num_vertices() - 1);
  EXPECT_TRUE(in_zone.valid());
}

TEST(LazyGraphBitset, ForcedRepBuildsRowsInMembership) {
  ZoneFixture f(gen::gnp(60, 0.4, 558));
  LazyGraph lazy = f.make();
  lazy.enable_bitset_rows(1 << 20);
  lazy.set_preferred_rep(NeighborhoodRep::kBitset);
  NeighborhoodView view = lazy.membership(3);
  EXPECT_TRUE(view.has_bitset());
  EXPECT_FALSE(view.is_hashed());
  // contains() agrees with the base graph inside the zone (incumbent 0:
  // nothing filtered, zone covers everything).
  for (VertexId u = 0; u < lazy.num_vertices(); ++u) {
    bool edge = f.g.has_edge(f.order.new_to_orig[3], f.order.new_to_orig[u]);
    EXPECT_EQ(view.contains(u), edge) << u;
  }
}

TEST(LazyGraphBitset, ConcurrentBuildsAreSafe) {
  // Threads race to build the same rows: each row claims one slot of
  // the shared row block once, and every reader sees the published row.
  ZoneFixture f(gen::gnp(400, 0.2, 780));
  LazyGraph lazy = f.make();
  lazy.enable_bitset_rows(1 << 22);
  ASSERT_TRUE(lazy.bitset_enabled());
  set_num_threads(8);
  const VertexId zb = lazy.zone_begin();
  const VertexId n = lazy.num_vertices();
  std::atomic<std::size_t> mismatches{0};
  parallel_for(0, (n - zb) * 4, [&](std::size_t i) {
    const VertexId v = zb + static_cast<VertexId>(i % (n - zb));
    BitsetRow row = lazy.bitset_row(v);
    NeighborhoodView view = lazy.membership(v);
    if (!row.valid() || !view.has_bitset() || view.size() != row.size()) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  }, 16);
  set_num_threads(0);
  EXPECT_EQ(mismatches.load(), 0u);
  const auto s = lazy.stats();
  EXPECT_EQ(s.bitset_built, static_cast<std::size_t>(n - zb));
  EXPECT_EQ(s.bitset_bytes, s.bitset_built * ((n - zb + 511) / 512) * 64);
}

}  // namespace
}  // namespace lazymc

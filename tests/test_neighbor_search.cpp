// Tests for NeighborSearch filtering, the subgraph extraction, and the
// systematic search driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>

#include "baselines/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/neighbor_search.hpp"
#include "support/random.hpp"

namespace lazymc {
namespace {

struct Fixture {
  Graph g;
  kcore::CoreDecomposition core;
  kcore::VertexOrder order;
  Incumbent incumbent;
  std::unique_ptr<LazyGraph> lazy;
  mc::SearchStats stats;

  explicit Fixture(Graph graph) : g(std::move(graph)) {
    core = kcore::coreness(g);
    order = kcore::order_by_coreness_degree(g, core.coreness);
    lazy = std::make_unique<LazyGraph>(g, order, core.coreness,
                                       &incumbent.size_atomic());
  }

  void run_systematic(double density_threshold = 0.10) {
    mc::NeighborSearchOptions opt;
    opt.density_threshold = density_threshold;
    mc::systematic_search(*lazy, incumbent, opt, stats);
  }
};

TEST(SystematicSearch, ExactOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Graph g = gen::gnp(60, 0.2, seed);
    auto ref = baselines::max_clique_reference(g);
    Fixture f(std::move(g));
    f.run_systematic();
    EXPECT_EQ(f.incumbent.size(), ref.size()) << "seed " << seed;
    EXPECT_TRUE(is_clique(f.g, f.incumbent.snapshot())) << "seed " << seed;
  }
}

TEST(SystematicSearch, ExactWithVcRouting) {
  // density_threshold 0 routes every searched subgraph through k-VC.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Graph g = gen::gnp(40, 0.3, seed);
    auto ref = baselines::max_clique_reference(g);
    Fixture f(std::move(g));
    f.run_systematic(0.0);
    EXPECT_EQ(f.incumbent.size(), ref.size()) << "seed " << seed;
    EXPECT_GT(f.stats.solved_vc.load() + f.stats.pass_filter3.load(), 0u);
  }
}

TEST(SystematicSearch, ExactWithMcOnlyRouting) {
  // density_threshold > 1 makes the density test unreachable: MC only.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Graph g = gen::gnp(40, 0.3, seed);
    auto ref = baselines::max_clique_reference(g);
    Fixture f(std::move(g));
    f.run_systematic(1.1);
    EXPECT_EQ(f.incumbent.size(), ref.size()) << "seed " << seed;
    EXPECT_EQ(f.stats.solved_vc.load(), 0u);
  }
}

TEST(SystematicSearch, FindsPlantedCliqueWithoutHeuristics) {
  std::vector<VertexId> members;
  Graph g = gen::plant_clique(gen::gnp(150, 0.04, 21), 12, 22, &members);
  Fixture f(std::move(g));
  f.run_systematic();
  EXPECT_GE(f.incumbent.size(), 12u);
  EXPECT_TRUE(is_clique(f.g, f.incumbent.snapshot()));
}

TEST(SystematicSearch, StatsFunnelIsMonotone) {
  Fixture f(gen::gnp(80, 0.15, 23));
  f.run_systematic();
  auto evaluated = f.stats.evaluated.load();
  auto f1 = f.stats.pass_filter1.load();
  auto f2 = f.stats.pass_filter2.load();
  auto f3 = f.stats.pass_filter3.load();
  EXPECT_GE(evaluated, f1);
  EXPECT_GE(f1, f2);
  EXPECT_GE(f2, f3);
  EXPECT_EQ(f3, f.stats.solved_mc.load() + f.stats.solved_vc.load());
}

TEST(SystematicSearch, PrimedIncumbentSkipsWork) {
  Graph g = gen::gnp(80, 0.15, 25);
  auto ref = baselines::max_clique_reference(g);

  Fixture cold(std::move(g));
  cold.run_systematic();
  auto cold_evaluated = cold.stats.evaluated.load();

  Fixture warm(cold.g);
  warm.incumbent.offer(ref);  // prime with the optimum
  warm.run_systematic();
  EXPECT_EQ(warm.incumbent.size(), ref.size());
  // With the optimum known, no improving clique exists and fewer (or
  // equal) neighborhoods reach the solvers.
  EXPECT_LE(warm.stats.pass_filter3.load(), cold.stats.pass_filter3.load());
  EXPECT_LE(warm.stats.evaluated.load(), cold_evaluated);
}

TEST(NeighborSearch, SingleVertexNeighborhood) {
  Fixture f(gen::complete(6));
  // Search the lowest-ordered vertex directly.
  mc::NeighborSearchOptions opt;
  mc::neighbor_search(*f.lazy, 0, f.incumbent, opt, f.stats);
  EXPECT_EQ(f.incumbent.size(), 6u);
  EXPECT_EQ(f.stats.evaluated.load(), 1u);
}

TEST(NeighborSearch, FixpointAfterRoundOneStopsTheFilter) {
  // In a complete graph the first degree-filter round keeps every
  // candidate, so the filter stops there: one intersection per survivor
  // of filter 1, not a second round that cannot remove anything.
  Fixture f(gen::complete(10));
  f.incumbent.offer(std::vector<VertexId>{0, 1, 2, 3});
  std::vector<VertexId> survivors;
  f.lazy->right_neighbors(0, f.incumbent.size(), survivors);
  ASSERT_EQ(survivors.size(), 9u);
  mc::KernelCounters counters;
  mc::NeighborSearchOptions opt;
  opt.degree_filter_rounds = 4;
  opt.intersect.counters = &counters;
  mc::neighbor_search(*f.lazy, 0, f.incumbent, opt, f.stats);
  std::uint64_t calls = 0;
#define LAZYMC_ADD(name) calls += counters.name.load();
  LAZYMC_KERNEL_COUNTERS(LAZYMC_ADD)
#undef LAZYMC_ADD
  EXPECT_EQ(calls, survivors.size());
  EXPECT_EQ(f.stats.pass_filter3.load(), 1u);
  EXPECT_EQ(f.incumbent.size(), 10u);
}

TEST(NeighborSearch, ProbesBuildNoSortedLists) {
  // Filter 1 reads N+(v) from the head's row or the base graph; with rows
  // on and the must-subgraph prebuilt, a pass over the zone caches
  // nothing new.
  std::vector<VertexId> planted;
  Graph g = gen::plant_clique(gen::gnp(300, 0.1, 33), 24, 34, &planted);
  auto ref = baselines::max_clique_reference(g);
  Fixture f(std::move(g));
  f.incumbent.offer(
      std::vector<VertexId>(planted.begin(), planted.begin() + 12));
  f.lazy->enable_bitset_rows(std::size_t{64} << 20);
  ASSERT_TRUE(f.lazy->bitset_enabled());
  f.lazy->prepopulate(Prepopulate::kMustSubgraph, f.incumbent.size());
  const std::size_t sorted_before = f.lazy->stats().sorted_built;
  mc::NeighborSearchOptions opt;
  for (VertexId v = f.lazy->num_vertices(); v-- > f.lazy->zone_begin();) {
    mc::neighbor_search(*f.lazy, v, f.incumbent, opt, f.stats);
  }
  EXPECT_GT(f.stats.pass_filter1.load(), 0u);
  EXPECT_EQ(f.lazy->stats().sorted_built, sorted_before);
  EXPECT_EQ(f.incumbent.size(), ref.size());
}

TEST(NeighborSearch, RespectsCancelledControl) {
  Fixture f(gen::gnp(60, 0.4, 27));
  SolveControl control;
  control.cancel();
  mc::NeighborSearchOptions opt;
  opt.control = &control;
  mc::systematic_search(*f.lazy, f.incumbent, opt, f.stats);
  // Cancelled before any solver call: no subgraph solved.
  EXPECT_EQ(f.stats.solved_mc.load() + f.stats.solved_vc.load(), 0u);
}

TEST(SystematicSearch, ZeroGapGraphLittleSystematicWork) {
  // When a heuristic already found a clique of size degeneracy+1, the
  // systematic phase has nothing to prove: every level is below |C*|.
  Graph bg = gen::barabasi_albert(200, 3, 29);
  Graph g = gen::plant_clique(bg, 10, 30);
  auto ref = baselines::max_clique_reference(g);
  ASSERT_EQ(ref.size(), 10u);
  Fixture f(std::move(g));
  f.incumbent.offer(ref);
  f.run_systematic();
  // Degeneracy is 9 (the planted clique), |C*| = 10 > 9: zero evaluations.
  EXPECT_EQ(f.stats.evaluated.load(), 0u);
}

TEST(SystematicSearch, EmptyGraph) {
  Fixture f(Graph{});
  f.run_systematic();
  EXPECT_EQ(f.incumbent.size(), 0u);
}

TEST(SystematicSearch, WorkSecondsAccumulate) {
  Fixture f(gen::gnp(100, 0.2, 31));
  f.run_systematic();
  EXPECT_GT(f.stats.work_seconds(), 0.0);
  EXPECT_GE(f.stats.filter_ns.load(), 0u);
}

// ---- induce_from_lazy against induce_dense ---------------------------------

enum class Rep { kBitset, kHash, kSorted, kStarvedBitset };

const char* rep_name(Rep rep) {
  switch (rep) {
    case Rep::kBitset: return "bitset";
    case Rep::kHash: return "hash";
    case Rep::kSorted: return "sorted";
    case Rep::kStarvedBitset: return "starved-bitset";
  }
  return "?";
}

/// A graph plus its order, and a fresh LazyGraph per representation.
struct ExtractFixture {
  Graph g;
  kcore::CoreDecomposition core;
  kcore::VertexOrder order;
  std::atomic<VertexId> incumbent{0};

  explicit ExtractFixture(Graph graph) : g(std::move(graph)) {
    core = kcore::coreness(g);
    order = kcore::order_by_coreness_degree(g, core.coreness);
  }

  std::unique_ptr<LazyGraph> make(Rep rep) {
    auto lazy =
        std::make_unique<LazyGraph>(g, order, core.coreness, &incumbent);
    switch (rep) {
      case Rep::kBitset:
        lazy->enable_bitset_rows(std::size_t{64} << 20);
        lazy->set_preferred_rep(NeighborhoodRep::kBitset);
        break;
      case Rep::kHash:
        lazy->set_preferred_rep(NeighborhoodRep::kHash);
        break;
      case Rep::kSorted:
        lazy->set_preferred_rep(NeighborhoodRep::kSorted);
        break;
      case Rep::kStarvedBitset: {
        // The zone bookkeeping plus room for a handful of rows: members
        // past the budget keep a hash set or sorted array instead.
        const std::size_t n = g.num_vertices();
        const std::size_t row_bytes = ((n + 63) / 64 + 7) / 8 * 64;
        lazy->enable_bitset_rows(
            n * (sizeof(std::uint64_t*) + sizeof(std::uint32_t)) +
            12 * row_bytes);
        lazy->set_preferred_rep(NeighborhoodRep::kBitset);
        break;
      }
    }
    return lazy;
  }
};

/// Expects the lazy extraction of `members` (relabelled, ascending) to
/// equal induce_dense over the same vertices: same order, rows and edge
/// count.  The scratch is shared across calls so stale pooled rows would
/// show.
void expect_matches_reference(LazyGraph& lazy, const ExtractFixture& f,
                              const std::vector<VertexId>& members,
                              mc::SearchScratch& scratch,
                              const std::string& what) {
  mc::SearchTally tally;
  mc::detail::induce_from_lazy(lazy, members, scratch.sub, scratch, tally);
  std::vector<VertexId> orig;
  for (VertexId v : members) orig.push_back(f.order.new_to_orig[v]);
  const DenseSubgraph ref = induce_dense(f.g, orig);
  const DenseSubgraph& sub = scratch.sub;
  ASSERT_EQ(sub.size(), members.size()) << what;
  EXPECT_EQ(sub.vertices, members) << what;
  EXPECT_EQ(sub.num_edges, ref.num_edges) << what;
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(sub.adj[i], ref.adj[i]) << what << " row " << i;
  }
}

/// `count` distinct vertices drawn from [lo, hi), ascending.
std::vector<VertexId> random_members(Rng& rng, VertexId lo, VertexId hi,
                                     std::size_t count) {
  std::vector<VertexId> pool;
  for (VertexId v = lo; v < hi; ++v) pool.push_back(v);
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(pool[i], pool[i + rng.next_below(pool.size() - i)]);
  }
  pool.resize(count);
  std::sort(pool.begin(), pool.end());
  return pool;
}

/// Member sets of every size the word layout cares about (1, 2, and
/// around one and two words).  Random sets, drawn from the top of the
/// order where the edges are and from the whole graph, have prefix
/// offsets off multiples of 64 and, when sparse, gaps between their
/// occupied zone words; contiguous ones fill whole words.
std::vector<std::vector<VertexId>> member_sets(VertexId n,
                                               std::uint64_t seed) {
  Rng rng(seed);
  const VertexId lo = n > 400 ? n - 400 : 0;
  std::vector<std::vector<VertexId>> sets;
  for (std::size_t size : {1, 2, 63, 64, 65, 130}) {
    sets.push_back(random_members(rng, lo, n, size));
    sets.push_back(random_members(rng, 0, n, size));
    std::vector<VertexId> run;
    for (VertexId v = static_cast<VertexId>(n - size); v < n; ++v) {
      run.push_back(v);
    }
    sets.push_back(run);
  }
  std::vector<VertexId> every_third;
  for (VertexId v = lo; v < n; v += 3) every_third.push_back(v);
  sets.push_back(every_third);
  return sets;
}

/// A dense block, a sparse remainder and a planted clique: rows of every
/// density.
Graph mixed_density_graph(std::uint64_t seed) {
  return gen::plant_clique(gen::graph_union(gen::gnp(200, 0.5, seed),
                                            gen::gnp(1700, 0.003, seed + 1)),
                           100, seed + 2);
}

TEST(InduceFromLazy, MatchesInduceDenseOnEveryRepresentation) {
  std::vector<Graph> graphs;
  graphs.push_back(gen::gnp(300, 0.3, 41));
  graphs.push_back(gen::plant_clique(gen::gnp(500, 0.05, 42), 40, 43));
  graphs.push_back(mixed_density_graph(44));
  bool gapped_words = false;
  bool unaligned_prefix = false;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    ExtractFixture f(graphs[gi]);
    const VertexId n = f.g.num_vertices();
    for (Rep rep :
         {Rep::kBitset, Rep::kHash, Rep::kSorted, Rep::kStarvedBitset}) {
      std::unique_ptr<LazyGraph> lazy = f.make(rep);
      mc::SearchScratch scratch;
      std::size_t k = 0;
      for (const auto& members : member_sets(n, 100 + gi)) {
        expect_matches_reference(
            *lazy, f, members, scratch,
            "graph " + std::to_string(gi) + " rep " + rep_name(rep) +
                " set " + std::to_string(k++));
        if (rep != Rep::kBitset || members.size() < 2) continue;
        // The word form this extraction compressed against.
        const SparseWordSet& a = scratch.a_words;
        for (std::size_t e = 1; e < a.num_entries(); ++e) {
          gapped_words |= a.indices()[e] != a.indices()[e - 1] + 1;
          unaligned_prefix |= a.prefix()[e] % 64 != 0;
        }
      }
      // The whole graph at once (a zone-wide member set).
      std::vector<VertexId> all(n);
      for (VertexId v = 0; v < n; ++v) all[v] = v;
      expect_matches_reference(*lazy, f, all, scratch,
                               "graph " + std::to_string(gi) + " rep " +
                                   rep_name(rep) + " all");
    }
  }
  EXPECT_TRUE(gapped_words);
  EXPECT_TRUE(unaligned_prefix);
}

TEST(InduceFromLazy, StarvedBudgetMixesWordRowsAndProbes) {
  // Some members extract from a word row, the rest from probes, and the
  // rows must still agree.
  ExtractFixture f(mixed_density_graph(45));
  const VertexId n = f.g.num_vertices();
  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  std::unique_ptr<LazyGraph> lazy = f.make(Rep::kStarvedBitset);
  mc::SearchScratch scratch;
  expect_matches_reference(*lazy, f, all, scratch, "starved all");
  std::size_t with_row = 0;
  for (VertexId v = 0; v < n; ++v) with_row += lazy->has_bitset(v);
  EXPECT_GT(with_row, 0u);
  EXPECT_LT(with_row, static_cast<std::size_t>(n));
}

TEST(InduceFromLazy, AdoptedRowsWithTheirOwnBitKeepNoSelfLoops) {
  // Rows adopted from a store are taken as they are; a row carrying its
  // own vertex must still extract without the diagonal.
  ExtractFixture f(gen::gnp(150, 0.3, 48));
  const VertexId n = f.g.num_vertices();
  const std::size_t stride = ((n + 63) / 64 + 7) / 8 * 8;
  AlignedWords words(n * stride, 0);
  std::vector<std::uint32_t> counts(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    std::uint64_t* row = words.data() + v * stride;
    row[v >> 6] |= 1ULL << (v & 63);
    for (VertexId u : f.g.neighbors(f.order.new_to_orig[v])) {
      const VertexId w = f.order.orig_to_new[u];
      row[w >> 6] |= 1ULL << (w & 63);
    }
    counts[v] = static_cast<std::uint32_t>(f.g.degree(f.order.new_to_orig[v]));
  }
  LazyGraph lazy(f.g, f.order, f.core.coreness, &f.incumbent);
  ASSERT_TRUE(lazy.adopt_prebuilt_rows(
      PrebuiltRows{words.data(), counts.data(), 0, n, stride}, false));
  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  mc::SearchScratch scratch;
  expect_matches_reference(lazy, f, all, scratch, "adopted rows");
}

TEST(InduceFromLazy, RowsFilteredAtDifferentIncumbentsStaySymmetric) {
  // A concurrent solve may raise the incumbent between two row builds,
  // so rows can disagree about a low-coreness member; the extraction
  // then keeps the pairwise rule (row i decides pair i < j).
  ExtractFixture f(gen::plant_clique(gen::gnp(400, 0.08, 46), 30, 47));
  const VertexId n = f.g.num_vertices();
  std::unique_ptr<LazyGraph> lazy = f.make(Rep::kBitset);
  std::vector<VertexId> members(n);
  for (VertexId v = 0; v < n; ++v) members[v] = v;
  // Half the rows see every neighbor; the rest are built after the
  // incumbent passed the coreness of the lower members.
  for (std::size_t i = 0; i < members.size(); i += 2) {
    ASSERT_TRUE(lazy->bitset_row(members[i]).valid());
  }
  f.incumbent.store(lazy->coreness(members[members.size() / 2]));
  ASSERT_GT(lazy->filter_bound(), lazy->coreness(members.front()));
  mc::SearchScratch scratch;
  mc::SearchTally tally;
  mc::detail::induce_from_lazy(*lazy, members, scratch.sub, scratch, tally);
  const DenseSubgraph& sub = scratch.sub;
  EdgeId m = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    NeighborhoodView view = lazy->membership(members[i]);
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      const bool edge = view.contains(members[j]);
      EXPECT_EQ(sub.adj[i].test(j), edge) << i << " " << j;
      EXPECT_EQ(sub.adj[j].test(i), edge) << j << " " << i;
      m += edge;
    }
    EXPECT_FALSE(sub.adj[i].test(i));
  }
  EXPECT_EQ(sub.num_edges, m);
}

}  // namespace
}  // namespace lazymc

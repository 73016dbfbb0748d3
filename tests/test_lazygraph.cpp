// Tests for the lazy filtered hashed relabelled graph (Algorithm 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "lazygraph/lazy_graph.hpp"

namespace lazymc {
namespace {

struct Fixture {
  Graph g;
  kcore::CoreDecomposition core;
  kcore::VertexOrder order;
  std::atomic<VertexId> incumbent{0};

  explicit Fixture(Graph graph) : g(std::move(graph)) {
    core = kcore::coreness(g);
    order = kcore::order_by_coreness_degree(g, core.coreness);
  }

  LazyGraph make() {
    return LazyGraph(g, order, core.coreness, &incumbent);
  }
};

TEST(LazyGraph, SortedNeighborhoodMatchesBaseGraph) {
  Fixture f(gen::gnp(60, 0.1, 3));
  LazyGraph lazy = f.make();
  for (VertexId v = 0; v < lazy.num_vertices(); ++v) {
    auto lazy_nbrs = lazy.sorted_neighborhood(v);
    // With incumbent 0, nothing is filtered.
    std::vector<VertexId> expected;
    for (VertexId u : f.g.neighbors(f.order.new_to_orig[v])) {
      expected.push_back(f.order.orig_to_new[u]);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_TRUE(std::equal(lazy_nbrs.begin(), lazy_nbrs.end(),
                           expected.begin(), expected.end()))
        << "vertex " << v;
  }
}

TEST(LazyGraph, HashedNeighborhoodMatchesSorted) {
  Fixture f(gen::gnp(50, 0.15, 5));
  LazyGraph lazy = f.make();
  for (VertexId v = 0; v < lazy.num_vertices(); ++v) {
    const HopscotchSet& h = lazy.hashed_neighborhood(v);
    auto s = lazy.sorted_neighborhood(v);
    EXPECT_EQ(h.size(), s.size());
    for (VertexId u : s) EXPECT_TRUE(h.contains(u));
  }
}

TEST(LazyGraph, RightNeighborhoodOnlyHigherIds) {
  Fixture f(gen::gnp(40, 0.2, 7));
  LazyGraph lazy = f.make();
  std::vector<VertexId> right;
  for (VertexId v = 0; v < lazy.num_vertices(); ++v) {
    lazy.right_neighbors(v, lazy.filter_bound(), right);
    for (VertexId u : right) {
      EXPECT_GT(u, v);
    }
    EXPECT_TRUE(std::is_sorted(right.begin(), right.end()));
    // left + right = all
    auto all = lazy.sorted_neighborhood(v);
    EXPECT_EQ(all.size() - right.size(),
              static_cast<std::size_t>(std::count_if(
                  all.begin(), all.end(), [&](VertexId u) { return u < v; })));
  }
}

/// {u in N(v) : u > v, coreness(u) >= bound} in relabelled ids, ascending,
/// straight from the base graph.
std::vector<VertexId> reference_right(const Fixture& f, VertexId v,
                                      VertexId bound) {
  std::vector<VertexId> right;
  for (VertexId u_orig : f.g.neighbors(f.order.new_to_orig[v])) {
    const VertexId u = f.order.orig_to_new[u_orig];
    if (u > v && f.core.coreness[u_orig] >= bound) right.push_back(u);
  }
  std::sort(right.begin(), right.end());
  return right;
}

/// Expects right_neighbors at `bound` to match the reference for every
/// head.  The output buffer is shared across heads, so a stale entry
/// would show.
void expect_right_neighbors_match(const LazyGraph& lazy, const Fixture& f,
                                  VertexId bound, const std::string& what) {
  std::vector<VertexId> right{kInvalidVertex};
  for (VertexId v = 0; v < lazy.num_vertices(); ++v) {
    lazy.right_neighbors(v, bound, right);
    ASSERT_EQ(right, reference_right(f, v, bound))
        << what << ", head " << v << ", bound " << bound;
  }
}

/// Zone rows over [zone_begin, n) written the way a binary store writes
/// them: every in-zone neighbor, no coreness filter.  Each row also
/// carries its own bit and, past the zone's end, set padding bits; both
/// must be ignored.
struct StoreRows {
  AlignedWords words;
  std::vector<std::uint32_t> counts;
  PrebuiltRows rows;

  StoreRows(const Fixture& f, VertexId zone_begin) {
    const VertexId n = f.g.num_vertices();
    const VertexId bits = n - zone_begin;
    const std::size_t stride = ((bits + 63) / 64 + 7) / 8 * 8;
    words.assign(std::size_t{bits} * stride, 0);
    counts.assign(bits, 0);
    for (VertexId i = 0; i < bits; ++i) {
      std::uint64_t* row = words.data() + std::size_t{i} * stride;
      row[i >> 6] |= 1ULL << (i & 63);
      const VertexId v = zone_begin + i;
      for (VertexId u_orig : f.g.neighbors(f.order.new_to_orig[v])) {
        const VertexId u = f.order.orig_to_new[u_orig];
        if (u < zone_begin) continue;
        row[(u - zone_begin) >> 6] |= 1ULL << ((u - zone_begin) & 63);
        ++counts[i];
      }
      if (bits % 64 != 0) row[(bits - 1) / 64] |= ~((1ULL << (bits % 64)) - 1);
    }
    rows = PrebuiltRows{words.data(), counts.data(), zone_begin, bits, stride};
  }
};

TEST(LazyGraph, RightNeighborsMatchReference) {
  // Vertex counts are whole words, so store zones from 0 and from 1 end
  // on a word boundary and mid-word.
  const Graph graphs[] = {
      gen::gnp(320, 0.1, 61),
      gen::rmat(10, 8, 0.57, 0.19, 0.19, 62),  // hubs and a long tail
      gen::plant_clique(gen::gnp(384, 0.05, 63), 40, 64),
  };
  for (const Graph& g : graphs) {
    Fixture f(g);
    const VertexId n = g.num_vertices();
    ASSERT_EQ(n % 64, 0u);
    std::vector<VertexId> coreness(n);
    for (VertexId v = 0; v < n; ++v) {
      coreness[v] = f.core.coreness[f.order.new_to_orig[v]];
    }
    // b1 is the top coreness level, raised past the rows' filter after
    // they are built; b0 is below it and admits more than two words of
    // vertices into the zone.
    const VertexId b1 = coreness.back();
    const auto top = std::lower_bound(coreness.begin(), coreness.end(), b1);
    ASSERT_NE(top, coreness.begin());
    const VertexId b0 = std::min(coreness[n - 129], *(top - 1));
    const VertexId live_zone_begin = static_cast<VertexId>(
        std::lower_bound(coreness.begin(), coreness.end(), b0) -
        coreness.begin());
    ASSERT_GT(live_zone_begin, 0u);
    f.incumbent.store(b0);

    {
      // Rows for the whole zone.  A zone of more than two words makes the
      // all-head sweep cover heads at bit 0, bit 63 and the zone's end.
      LazyGraph lazy = f.make();
      lazy.enable_bitset_rows(std::size_t{64} << 20);
      ASSERT_EQ(lazy.zone_begin(), live_zone_begin);
      ASSERT_GT(lazy.zone_size(), 128u);
      lazy.set_preferred_rep(NeighborhoodRep::kBitset);
      lazy.prepopulate(Prepopulate::kMustSubgraph, b0);
      for (VertexId v = lazy.zone_begin(); v < n; ++v) {
        ASSERT_TRUE(lazy.has_bitset(v));
      }
      expect_right_neighbors_match(lazy, f, b0, "rows");
      f.incumbent.store(b1);
      expect_right_neighbors_match(lazy, f, b1, "rows, raised bound");
      EXPECT_EQ(lazy.stats().sorted_built, 0u);
      f.incumbent.store(b0);
    }
    {
      // Room for a dozen rows: the other heads answer from the base graph.
      LazyGraph lazy = f.make();
      const std::size_t zone = n - live_zone_begin;
      const std::size_t row_bytes = ((zone + 63) / 64 + 7) / 8 * 64;
      lazy.enable_bitset_rows(
          zone * (sizeof(std::uint64_t*) + sizeof(std::uint32_t)) +
          12 * row_bytes);
      ASSERT_TRUE(lazy.bitset_enabled());
      std::size_t with_row = 0;
      for (VertexId v = lazy.zone_begin(); v < n; ++v) {
        with_row += lazy.bitset_row(v).valid();
      }
      EXPECT_GT(with_row, 0u);
      EXPECT_LT(with_row, zone);
      expect_right_neighbors_match(lazy, f, b0, "starved rows");
    }
    {
      LazyGraph lazy = f.make();
      lazy.set_preferred_rep(NeighborhoodRep::kHash);
      lazy.prepopulate(Prepopulate::kAll, 0);
      expect_right_neighbors_match(lazy, f, b0, "hash");
      EXPECT_EQ(lazy.stats().sorted_built, 0u);
    }
    {
      // Cached sorted arrays are not read: the base graph answers.
      LazyGraph lazy = f.make();
      lazy.set_preferred_rep(NeighborhoodRep::kSorted);
      lazy.prepopulate(Prepopulate::kAll, 0);
      const std::size_t built = lazy.stats().sorted_built;
      ASSERT_EQ(built, n);
      expect_right_neighbors_match(lazy, f, b0, "sorted");
      expect_right_neighbors_match(lazy, f, b1, "sorted, raised bound");
      EXPECT_EQ(lazy.stats().sorted_built, built);
    }
    // Store rows over a zone wider than the live one, ending on a word
    // boundary (from 0: the last head's bits start at the row's end) and
    // mid-word (from 1).
    for (VertexId zone_begin : {VertexId{0}, VertexId{1}}) {
      StoreRows store(f, zone_begin);
      LazyGraph lazy = f.make();
      ASSERT_TRUE(lazy.adopt_prebuilt_rows(store.rows, false));
      expect_right_neighbors_match(lazy, f, b0, "adopted rows");
      f.incumbent.store(b1);
      expect_right_neighbors_match(lazy, f, b1, "adopted rows, raised bound");
      f.incumbent.store(b0);
    }
  }
}

TEST(LazyGraph, ConstructionIsLazy) {
  Fixture f(gen::gnp(100, 0.05, 9));
  LazyGraph lazy = f.make();
  EXPECT_EQ(lazy.stats().hash_built, 0u);
  EXPECT_EQ(lazy.stats().sorted_built, 0u);
  EXPECT_FALSE(lazy.has_hashed(0));
  lazy.hashed_neighborhood(0);
  EXPECT_TRUE(lazy.has_hashed(0));
  EXPECT_EQ(lazy.stats().hash_built, 1u);
  EXPECT_EQ(lazy.stats().sorted_built, 0u);
}

TEST(LazyGraph, MemoizedNotRebuilt) {
  Fixture f(gen::gnp(30, 0.2, 11));
  LazyGraph lazy = f.make();
  lazy.hashed_neighborhood(3);
  lazy.hashed_neighborhood(3);
  lazy.sorted_neighborhood(3);
  lazy.sorted_neighborhood(3);
  EXPECT_EQ(lazy.stats().hash_built, 1u);
  EXPECT_EQ(lazy.stats().sorted_built, 1u);
}

TEST(LazyGraph, FiltersByCorenessAgainstIncumbent) {
  // Star: center has coreness 1, leaves coreness 1. With incumbent 2,
  // every neighborhood filters everything (coreness 1 < 2).
  Fixture f(gen::star(10));
  f.incumbent.store(2);
  LazyGraph lazy = f.make();
  for (VertexId v = 0; v < lazy.num_vertices(); ++v) {
    EXPECT_TRUE(lazy.sorted_neighborhood(v).empty());
  }
  EXPECT_GT(lazy.stats().neighbors_filtered, 0u);
  EXPECT_EQ(lazy.stats().neighbors_kept, 0u);
}

TEST(LazyGraph, FilterKeepsHighCorenessVertices) {
  // K5 with a pendant: clique vertices have coreness 4, pendant 1.
  Graph k5 = gen::complete(5);
  GraphBuilder b(6);
  for (VertexId v = 0; v < 5; ++v) {
    for (VertexId u : k5.neighbors(v)) {
      if (v < u) b.add_edge(v, u);
    }
  }
  b.add_edge(0, 5);
  Fixture f(b.build());
  f.incumbent.store(3);
  LazyGraph lazy = f.make();
  // The clique vertices keep each other, the pendant is filtered out of
  // vertex 0's neighborhood, and the pendant's own neighborhood keeps its
  // high-coreness neighbor.
  VertexId pendant = f.order.orig_to_new[5];
  auto pend_nbrs = lazy.sorted_neighborhood(pendant);
  EXPECT_EQ(pend_nbrs.size(), 1u);
  VertexId zero = f.order.orig_to_new[0];
  auto zero_nbrs = lazy.sorted_neighborhood(zero);
  EXPECT_EQ(zero_nbrs.size(), 4u);  // pendant filtered (coreness 1 < 3)
  for (VertexId u : zero_nbrs) EXPECT_NE(u, pendant);
}

TEST(LazyGraph, SnapshotsDivergeAsIncumbentGrows) {
  // Build the sorted representation early (incumbent 0), then raise the
  // incumbent and build the hash set: the hash set must be smaller.
  Graph g = gen::graph_union(gen::complete(5), gen::star(12));
  Fixture f(std::move(g));
  LazyGraph lazy = f.make();
  VertexId hub = f.order.orig_to_new[0];  // in both K5 and the star
  auto sorted_before = lazy.sorted_neighborhood(hub);
  std::size_t before = sorted_before.size();
  f.incumbent.store(4);
  const HopscotchSet& hashed = lazy.hashed_neighborhood(hub);
  EXPECT_LT(hashed.size(), before);
}

TEST(LazyGraph, MembershipPrefersHash) {
  Fixture f(gen::gnp(40, 0.4, 13));
  LazyGraph lazy = f.make();
  lazy.hashed_neighborhood(5);
  NeighborhoodView view = lazy.membership(5);
  EXPECT_TRUE(view.is_hashed());
  // A vertex with only a sorted set reports a sorted view.
  lazy.sorted_neighborhood(7);
  NeighborhoodView view7 = lazy.membership(7);
  EXPECT_FALSE(view7.is_hashed());
}

TEST(LazyGraph, MembershipBuildsByDegreeThreshold) {
  // Under auto a vertex of degree over 16 gets a row, a lower-degree one
  // the CSR view; without rows both get the CSR view.  Nothing builds a
  // hash set or a sorted array.
  Fixture f(gen::star(40));
  VertexId hub = f.order.orig_to_new[0];   // degree 39 > threshold
  VertexId leaf = f.order.orig_to_new[7];  // degree 1
  {
    LazyGraph lazy = f.make();
    lazy.enable_bitset_rows(std::size_t{1} << 20);
    ASSERT_TRUE(lazy.bitset_enabled());
    EXPECT_TRUE(lazy.membership(hub).has_bitset());
    NeighborhoodView leaf_view = lazy.membership(leaf);
    EXPECT_TRUE(leaf_view.is_csr());
    EXPECT_EQ(leaf_view.size(), 1u);
    EXPECT_TRUE(leaf_view.contains(hub));
    EXPECT_EQ(lazy.stats().bitset_built, 1u);
  }
  {
    LazyGraph lazy = f.make();
    NeighborhoodView hub_view = lazy.membership(hub);
    EXPECT_TRUE(hub_view.is_csr());
    EXPECT_EQ(hub_view.size(), 39u);
    EXPECT_TRUE(lazy.membership(leaf).is_csr());
    EXPECT_EQ(lazy.stats().hash_built + lazy.stats().sorted_built, 0u);
  }
  // Under hash, the low-degree vertex gets a hash set too.
  LazyGraph lazy = f.make();
  lazy.set_preferred_rep(NeighborhoodRep::kHash);
  EXPECT_TRUE(lazy.membership(hub).is_hashed());
  EXPECT_TRUE(lazy.membership(leaf).is_hashed());
}

TEST(LazyGraph, RowLessHubsGetARowElseAHashSet) {
  // A star's centre (degree 39; the path shares edge 0-1) in a zone of
  // 20,000 vertices: too sparse for the auto rule's row, so it reads the
  // CSR, unless the caller's candidate set is small enough to make it a
  // hub (degree >= kHubRatio |A|).  A hub takes a row past the rule, or a
  // hash set with rows off.
  Fixture f(gen::graph_union(gen::star(40), gen::path(20000)));
  const VertexId hub = f.order.orig_to_new[0];
  const VertexId leaf = f.order.orig_to_new[7];  // degree 3
  const std::size_t hub_probes = 39 / LazyGraph::kHubRatio;
  {
    LazyGraph lazy = f.make();
    ASSERT_EQ(lazy.original_degree(hub), 39u);
    lazy.enable_bitset_rows(std::size_t{64} << 20);
    ASSERT_TRUE(lazy.bitset_enabled());
    ASSERT_EQ(lazy.zone_size(), 20000u);
    EXPECT_TRUE(lazy.membership(hub).is_csr());
    EXPECT_TRUE(lazy.membership(hub, hub_probes + 1).is_csr());
    EXPECT_TRUE(lazy.membership(hub, hub_probes).has_bitset());
    EXPECT_TRUE(lazy.membership(hub).has_bitset());  // built rows stay
    EXPECT_EQ(lazy.stats().bitset_built, 1u);
    EXPECT_EQ(lazy.stats().hash_built, 0u);
  }
  {
    LazyGraph lazy = f.make();  // rows off
    EXPECT_TRUE(lazy.membership(hub, hub_probes + 1).is_csr());
    NeighborhoodView hub_view = lazy.membership(hub, hub_probes);
    ASSERT_TRUE(hub_view.is_hashed());
    EXPECT_EQ(hub_view.size(), 39u);
    EXPECT_TRUE(hub_view.contains(leaf));
    // Degree 1 is below the hash threshold: never a hub.
    EXPECT_TRUE(lazy.membership(leaf, 0).is_csr());
    EXPECT_TRUE(lazy.membership(leaf, 1).is_csr());
    EXPECT_EQ(lazy.stats().hash_built, 1u);
  }
}

TEST(LazyGraph, MembershipViewContainsAgreesWithEdges) {
  Fixture f(gen::gnp(50, 0.2, 17));
  LazyGraph lazy = f.make();
  for (VertexId v = 0; v < lazy.num_vertices(); ++v) {
    NeighborhoodView view = lazy.membership(v);
    for (VertexId u = 0; u < lazy.num_vertices(); ++u) {
      bool edge = f.g.has_edge(f.order.new_to_orig[v], f.order.new_to_orig[u]);
      EXPECT_EQ(view.contains(u), edge) << v << " " << u;
    }
  }
}

TEST(LazyGraph, PrepopulateAllBuildsEverything) {
  Fixture f(gen::gnp(60, 0.1, 19));
  LazyGraph lazy = f.make();
  lazy.set_preferred_rep(NeighborhoodRep::kHash);
  lazy.prepopulate(Prepopulate::kAll, 0);
  EXPECT_EQ(lazy.stats().hash_built, 60u);
  for (VertexId v = 0; v < 60; ++v) EXPECT_TRUE(lazy.has_hashed(v));
}

TEST(LazyGraph, PrepopulateNoneBuildsNothing) {
  Fixture f(gen::gnp(60, 0.1, 19));
  LazyGraph lazy = f.make();
  lazy.prepopulate(Prepopulate::kNone, 0);
  EXPECT_EQ(lazy.stats().hash_built, 0u);
}

TEST(LazyGraph, PrepopulateMustBuildsOnlyHighCoreness) {
  Graph g = gen::graph_union(gen::complete(6), gen::path(20));
  Fixture f(std::move(g));
  LazyGraph lazy = f.make();
  lazy.set_preferred_rep(NeighborhoodRep::kHash);
  lazy.prepopulate(Prepopulate::kMustSubgraph, 5);
  // Only the K6 members have coreness >= 5.
  EXPECT_EQ(lazy.stats().hash_built, 6u);
}

TEST(LazyGraph, AutoPrepopulateBuildsOnlyRows) {
  // Under auto, prepopulation builds rows where the auto rule wants them
  // and nothing else: no rows enabled, nothing built at all.
  Graph g = gen::graph_union(gen::complete(6), gen::path(20));
  Fixture f(std::move(g));
  {
    LazyGraph lazy = f.make();
    lazy.prepopulate(Prepopulate::kAll, 0);
    const auto s = lazy.stats();
    EXPECT_EQ(s.hash_built + s.sorted_built + s.bitset_built, 0u);
  }
  LazyGraph lazy = f.make();
  lazy.enable_bitset_rows(std::size_t{1} << 20);
  lazy.prepopulate(Prepopulate::kMustSubgraph, 5);
  const auto s = lazy.stats();
  EXPECT_EQ(s.hash_built + s.sorted_built, 0u);
  EXPECT_EQ(s.bitset_built, 6u);  // the K6 members
}

TEST(LazyGraph, ConcurrentConstructionIsSafe) {
  Fixture f(gen::gnp(200, 0.08, 23));
  LazyGraph lazy = f.make();
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (VertexId v = 0; v < 200; ++v) {
        const HopscotchSet& h = lazy.hashed_neighborhood(v);
        auto s = lazy.sorted_neighborhood(v);
        if (h.size() != s.size()) errors++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  // Each representation built exactly once despite 8 racing threads.
  EXPECT_EQ(lazy.stats().hash_built, 200u);
  EXPECT_EQ(lazy.stats().sorted_built, 200u);
}

TEST(LazyGraph, MismatchedSizesThrow) {
  Fixture f(gen::path(5));
  std::vector<VertexId> bad_coreness(3, 0);
  EXPECT_THROW(LazyGraph(f.g, f.order, bad_coreness, &f.incumbent),
               std::invalid_argument);
}

}  // namespace
}  // namespace lazymc

// Death tests for the LAZYMC_CHECKED invariant machinery: each test
// plants a corruption that a checked build must catch with an abort and a
// diagnostic naming the violated invariant.  In default builds the
// assertions compile to nothing, so every test skips — the suite is only
// meaningful under -DLAZYMC_CHECKED=ON (the CI static-analysis job runs
// it there).
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "intersect/bitset_row.hpp"
#include "kcore/order.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/incumbent.hpp"
#include "support/bitset.hpp"
#include "support/check.hpp"

namespace lazymc {

// Test-only backdoor into SparseWordSet's private arrays (befriended by
// the class) so the tests can corrupt state that no public path can.
struct SparseWordSetTestAccess {
  static void corrupt_prefix(SparseWordSet& set) { set.prefix_[1] += 1; }
  static void corrupt_bits(SparseWordSet& set) { set.bits_[0] = 0; }
  static void drop_entry(SparseWordSet& set) {
    set.indices_.pop_back();
    set.bits_.pop_back();
  }
};

namespace {

#if LAZYMC_CHECKED_ENABLED
#define LAZYMC_SKIP_UNLESS_CHECKED() ((void)0)
#else
#define LAZYMC_SKIP_UNLESS_CHECKED() \
  GTEST_SKIP() << "assertions compile to nothing without -DLAZYMC_CHECKED=ON"
#endif

SparseWordSet make_set() {
  std::vector<VertexId> sorted = {0, 3, 64, 65, 130};
  SparseWordSet set;
  set.build(sorted, /*zone_begin=*/0);
  return set;
}

TEST(CheckedSparseWordSet, CleanBuildVerifies) {
  SparseWordSet set = make_set();
  set.verify();  // must not abort in any build
  EXPECT_EQ(set.count(), 5u);
}

TEST(CheckedSparseWordSetDeathTest, CorruptedPrefixAborts) {
  LAZYMC_SKIP_UNLESS_CHECKED();
  SparseWordSet set = make_set();
  SparseWordSetTestAccess::corrupt_prefix(set);
  EXPECT_DEATH(set.verify(), "prefix-popcount");
}

TEST(CheckedSparseWordSetDeathTest, ZeroedWordAborts) {
  LAZYMC_SKIP_UNLESS_CHECKED();
  SparseWordSet set = make_set();
  SparseWordSetTestAccess::corrupt_bits(set);
  EXPECT_DEATH(set.verify(), "empty word");
}

TEST(CheckedSparseWordSetDeathTest, MismatchedArrayLengthsAbort) {
  LAZYMC_SKIP_UNLESS_CHECKED();
  SparseWordSet set = make_set();
  SparseWordSetTestAccess::drop_entry(set);
  EXPECT_DEATH(set.verify(), "parallel-array lengths");
}

TEST(CheckedIncumbentDeathTest, NonCliqueIncumbentAborts) {
  LAZYMC_SKIP_UNLESS_CHECKED();
#if LAZYMC_CHECKED_ENABLED
  // Path graph 0-1-2: {0, 2} is an independent pair, not a clique.
  Graph g = graph_from_edges(3, {{0, 1}, {1, 2}});
  Incumbent incumbent;
  incumbent.set_verifier(
      [&g](std::span<const VertexId> clique) { return is_clique(g, clique); });
  const std::vector<VertexId> honest = {0, 1};
  EXPECT_TRUE(incumbent.offer(honest));
  const std::vector<VertexId> lie = {0, 1, 2};
  EXPECT_DEATH(incumbent.offer(lie), "not a clique");
#endif
}

TEST(CheckedBitsetDeathTest, OutOfBoundsBitAborts) {
  LAZYMC_SKIP_UNLESS_CHECKED();
  DynamicBitset bits(64);
  bits.set(63);  // in bounds: fine
  EXPECT_TRUE(bits.test(63));
  EXPECT_DEATH(bits.set(64), "out of bounds");
  EXPECT_DEATH((void)bits.test(64), "out of bounds");
}

TEST(CheckedLazyGraphDeathTest, OrderNotAscendingByCorenessAborts) {
  LAZYMC_SKIP_UNLESS_CHECKED();
  // A triangle {0,1,2} with a pendant 3: coreness 2,2,2,1.  The identity
  // order then puts a coreness-1 vertex after coreness-2 ones, which would
  // make every zone and level lookup wrong.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const std::vector<VertexId> coreness = {2, 2, 2, 1};
  kcore::VertexOrder identity;
  identity.new_to_orig = {0, 1, 2, 3};
  identity.orig_to_new = {0, 1, 2, 3};
  EXPECT_DEATH(LazyGraph(g, identity, coreness, nullptr),
               "ascend by coreness");
}

}  // namespace
}  // namespace lazymc

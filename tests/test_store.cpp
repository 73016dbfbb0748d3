// Tests for the `.lmg` binary graph store (src/store/): write/open
// round-trips across the synthetic suite, corruption hardening (a
// truncated or bit-flipped file must surface as Error(kInput), never as
// UB off a short mmap), format sniffing through io::read_graph_file, and
// the end-to-end preprocessing seam — lazy_mc consuming a store must
// produce the identical omega while adopting prebuilt rows zero-copy
// (row-build counters stay zero) or falling back to lazy building when
// the stored zone is incompatible with the live incumbent.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/suite.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "mc/lazymc.hpp"
#include "store/binary_graph.hpp"
#include "store/format.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace lazymc {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Serializes g with its exact decomposition; returns the path.
std::string write_store(const Graph& g, const std::string& name,
                        bool with_rows, VertexId rows_omega) {
  kcore::CoreDecomposition core = kcore::coreness(g);
  kcore::VertexOrder order =
      kcore::order_by_coreness_degree(g, core.coreness);
  store::LmgBuildData data;
  data.order = &order;
  data.coreness = &core.coreness;
  data.degeneracy = core.degeneracy;
  data.with_rows = with_rows;
  data.rows_omega = rows_omega;
  const std::string path = temp_path(name);
  store::write_lmg(g, data, path);
  return path;
}

void expect_input_error(const std::string& path, const char* what) {
  try {
    store::BinaryGraphView::open(path);
    FAIL() << what << ": open unexpectedly succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInput) << what << ": " << e.what();
  }
}

// --- round-trips ------------------------------------------------------------

TEST(Store, RoundTripAcrossSuite) {
  for (const auto& name : suite::instance_names()) {
    SCOPED_TRACE(name);
    auto inst = suite::make_instance(name, suite::Scale::kTiny);
    const Graph& g = inst.graph;
    kcore::CoreDecomposition core = kcore::coreness(g);
    kcore::VertexOrder order =
        kcore::order_by_coreness_degree(g, core.coreness);
    const std::string path =
        write_store(g, "rt_" + name + ".lmg", /*with_rows=*/true, 1);

    auto view = store::BinaryGraphView::open(path);
    const Graph h = view->graph();
    ASSERT_EQ(h.num_vertices(), g.num_vertices());
    ASSERT_EQ(h.num_edges(), g.num_edges());
    EXPECT_TRUE(std::ranges::equal(h.offsets(), g.offsets()));
    EXPECT_TRUE(std::ranges::equal(h.adjacency(), g.adjacency()));
    ASSERT_TRUE(view->has_order());
    EXPECT_EQ(view->order().new_to_orig, order.new_to_orig);
    EXPECT_EQ(view->order().orig_to_new, order.orig_to_new);
    EXPECT_EQ(view->coreness(), core.coreness);
    EXPECT_EQ(view->degeneracy(), core.degeneracy);
  }
}

TEST(Store, RowBitsMatchInZoneAdjacency) {
  auto inst = suite::make_instance("soflow", suite::Scale::kTiny);
  const Graph& g = inst.graph;
  kcore::CoreDecomposition core = kcore::coreness(g);
  kcore::VertexOrder order =
      kcore::order_by_coreness_degree(g, core.coreness);
  const std::string path = write_store(g, "rows.lmg", true, 2);
  auto view = store::BinaryGraphView::open(path);
  ASSERT_TRUE(view->has_rows());
  const PrebuiltRows rows = view->rows();
  ASSERT_TRUE(rows.valid());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(rows.words) % 64, 0u);
  const VertexId zb = rows.zone_begin;
  ASSERT_EQ(zb + rows.zone_bits, g.num_vertices());
  // The zone boundary is exactly the rows_omega threshold in new-id order.
  if (zb > 0) {
    EXPECT_LT(core.coreness[order.new_to_orig[zb - 1]], 2u);
  }
  EXPECT_GE(core.coreness[order.new_to_orig[zb]], 2u);
  for (VertexId v = zb; v < g.num_vertices(); ++v) {
    const std::uint64_t* row =
        rows.words + static_cast<std::size_t>(v - zb) * rows.stride_words;
    std::uint32_t count = 0;
    std::vector<bool> expected(rows.zone_bits, false);
    for (VertexId u_orig : g.neighbors(order.new_to_orig[v])) {
      const VertexId u = order.orig_to_new[u_orig];
      if (u < zb) continue;
      expected[u - zb] = true;
      ++count;
    }
    ASSERT_EQ(rows.counts[v - zb], count) << "relabelled vertex " << v;
    for (VertexId b = 0; b < rows.zone_bits; ++b) {
      const bool bit = (row[b >> 6] >> (b & 63)) & 1;
      ASSERT_EQ(bit, expected[b]) << "vertex " << v << " bit " << b;
    }
  }
}

TEST(Store, EmptyAndRowlessGraphs) {
  // n = 0: header-only store round-trips.
  const std::string empty = write_store(Graph{}, "empty.lmg", false, 0);
  auto view = store::BinaryGraphView::open(empty);
  EXPECT_EQ(view->graph().num_vertices(), 0u);
  EXPECT_FALSE(view->has_rows());

  // A threshold above the max coreness leaves the zone empty: the rows
  // sections are simply omitted, not stored empty.
  Graph k4 = gen::complete(4);
  const std::string path = write_store(k4, "k4.lmg", true, 100);
  auto v4 = store::BinaryGraphView::open(path);
  EXPECT_FALSE(v4->has_rows());
  EXPECT_FALSE(v4->rows().valid());
  EXPECT_EQ(v4->graph().num_edges(), 6u);
}

TEST(Store, ReadGraphFileSniffsLmg) {
  Graph g = gen::gnp(80, 0.1, /*seed=*/9);
  const std::string path = write_store(g, "sniff.lmg", false, 0);
  EXPECT_TRUE(store::is_lmg_file(path));
  EXPECT_FALSE(store::is_lmg_file(temp_path("no-such-file")));
  Graph h = io::read_graph_file(path);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_TRUE(std::ranges::equal(h.adjacency(), g.adjacency()));

  // A Graph copy must keep the mapping alive past the original.
  Graph copy;
  {
    Graph original = io::read_graph_file(path);
    copy = original;
  }
  EXPECT_TRUE(std::ranges::equal(copy.adjacency(), g.adjacency()));

  const std::string text = temp_path("not-lmg.txt");
  write_bytes(text, "p edge 2 1\ne 1 2\n");
  EXPECT_FALSE(store::is_lmg_file(text));
  EXPECT_EQ(io::read_graph_file(text).num_edges(), 1u);
}

// --- corruption hardening ---------------------------------------------------

TEST(Store, TruncatedFileThrowsInputError) {
  Graph g = gen::gnp(60, 0.15, 3);
  const std::string path = write_store(g, "trunc.lmg", true, 1);
  const std::string bytes = read_bytes(path);
  ASSERT_GT(bytes.size(), sizeof(store::FileHeader));

  // Shorter than the header: size check, not a wild memcpy.
  write_bytes(path, bytes.substr(0, 40));
  expect_input_error(path, "40-byte file");

  // Header survives but the payloads are cut: section containment fails.
  write_bytes(path, bytes.substr(0, bytes.size() / 2));
  expect_input_error(path, "half file");

  // One byte short: the last section no longer fits.
  write_bytes(path, bytes.substr(0, bytes.size() - 1));
  expect_input_error(path, "one byte short");

  write_bytes(path, "");
  expect_input_error(path, "empty file");
}

TEST(Store, FlippedByteThrowsInputError) {
  Graph g = gen::gnp(60, 0.15, 4);
  const std::string path = write_store(g, "flip.lmg", true, 1);
  const std::string bytes = read_bytes(path);

  // In a payload: that section's checksum catches it.
  std::string corrupt = bytes;
  corrupt[corrupt.size() - 1] = static_cast<char>(corrupt.back() ^ 0x20);
  write_bytes(path, corrupt);
  expect_input_error(path, "payload flip");

  // In the header: the header checksum catches it.
  corrupt = bytes;
  corrupt[12] = static_cast<char>(corrupt[12] ^ 0x01);
  write_bytes(path, corrupt);
  expect_input_error(path, "header flip");

  // In the section table: the table checksum catches it.
  corrupt = bytes;
  corrupt[sizeof(store::FileHeader) + 8] ^= 0x01;
  write_bytes(path, corrupt);
  expect_input_error(path, "table flip");

  // Bad magic: not an lmg file at all.
  corrupt = bytes;
  corrupt[0] = 'X';
  write_bytes(path, corrupt);
  EXPECT_FALSE(store::is_lmg_file(path));
  expect_input_error(path, "bad magic");
}

TEST(Store, OffsetPastEofThrowsInputError) {
  Graph g = gen::gnp(40, 0.2, 5);
  const std::string path = write_store(g, "oob.lmg", false, 0);
  std::string bytes = read_bytes(path);

  // Point the first section far past EOF and recompute both checksums so
  // only the containment check can reject it — proving the reader bounds
  // every section against the mapping, not just against the digests.
  store::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  const std::size_t table_off = sizeof(store::FileHeader);
  const std::size_t table_size =
      header.section_count * sizeof(store::SectionEntry);
  store::SectionEntry entry;
  std::memcpy(&entry, bytes.data() + table_off, sizeof(entry));
  entry.offset = (bytes.size() + 4096) & ~std::uint64_t{63};
  std::memcpy(bytes.data() + table_off, &entry, sizeof(entry));
  header.table_checksum =
      store::checksum_bytes(bytes.data() + table_off, table_size);
  header.header_checksum = store::checksum_bytes(
      &header, offsetof(store::FileHeader, header_checksum));
  std::memcpy(bytes.data(), &header, sizeof(header));
  write_bytes(path, bytes);
  expect_input_error(path, "offset past EOF");
}

// --- the preprocessing seam -------------------------------------------------

mc::LazyMCResult solve_with_store(
    const Graph& g, const std::shared_ptr<store::BinaryGraphView>& view,
    NeighborhoodRep rep) {
  mc::PrebuiltGraph prebuilt;
  prebuilt.order = &view->order();
  prebuilt.coreness = &view->coreness();
  prebuilt.degeneracy = view->degeneracy();
  if (view->has_rows()) prebuilt.rows = view->rows();
  mc::LazyMCConfig config;
  config.neighborhood_rep = rep;
  config.prebuilt = &prebuilt;
  return mc::lazy_mc(g, config);
}

// Satellite: convert -> load equivalence.  Every suite instance through
// the store and back must produce a bit-identical omega and coreness,
// with the kernel-counter-visible representation showing zero-copy row
// adoption (no row ever rebuilt) at 1, 2, and 8 threads.
TEST(Store, SolveEquivalenceAcrossSuiteAndThreads) {
  for (const auto& name : suite::instance_names()) {
    SCOPED_TRACE(name);
    auto inst = suite::make_instance(name, suite::Scale::kTiny);
    const Graph& g = inst.graph;
    const std::string path = write_store(g, "eq_" + name + ".lmg", true, 1);
    auto view = store::BinaryGraphView::open(path);
    ASSERT_EQ(view->coreness(), kcore::coreness(g).coreness);
    for (std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      set_num_threads(threads);
      auto fresh = mc::lazy_mc(g);
      auto stored = solve_with_store(g, view, NeighborhoodRep::kBitset);
      EXPECT_EQ(stored.omega, fresh.omega);
      EXPECT_TRUE(is_clique(g, stored.clique));
      EXPECT_EQ(stored.degeneracy, view->degeneracy());
      if (view->has_rows()) {
        // Zone threshold 1 always adopts (the boundary coreness is 0,
        // below any incumbent), so no row is built.
        EXPECT_EQ(stored.lazy_graph.rows_prebuilt, view->zone_size());
        EXPECT_EQ(stored.lazy_graph.bitset_built, 0u);
      }
    }
  }
  set_num_threads(0);
}

TEST(Store, AdoptRefusesTheRemovedHybridView) {
  // adopt_prebuilt_rows keeps the flag that once selected the hybrid-row
  // view; `true` must refuse and leave the graph free to adopt as usual.
  auto inst = suite::make_instance("webcc", suite::Scale::kTiny);
  const Graph& g = inst.graph;
  const std::string path = write_store(g, "adopt.lmg", true, 1);
  auto view = store::BinaryGraphView::open(path);
  ASSERT_TRUE(view->has_rows());
  std::atomic<VertexId> incumbent{0};
  LazyGraph lazy(g, view->order(), view->coreness(), &incumbent);
  EXPECT_FALSE(lazy.adopt_prebuilt_rows(view->rows(), /*hybrid=*/true));
  EXPECT_FALSE(lazy.bitset_enabled());
  EXPECT_EQ(lazy.stats().rows_prebuilt, 0u);
  EXPECT_TRUE(lazy.adopt_prebuilt_rows(view->rows(), /*hybrid=*/false));
  EXPECT_EQ(lazy.stats().rows_prebuilt, view->zone_size());
}

TEST(Store, IncompatibleZoneFallsBackToLazyBuild) {
  // C10 + K8,8: omega is 2 (both components are triangle-free), so the
  // live incumbent fixes its zone at coreness >= 2 — every vertex.  A
  // store packed with rows_omega 5 covers only the K8,8 part (coreness
  // 8); the boundary vertex's coreness (2) is not below the incumbent,
  // so adoption must refuse the too-narrow zone and the solve must fall
  // back to building rows lazily, still yielding the exact omega.
  GraphBuilder b(26);
  for (VertexId v = 0; v < 10; ++v) b.add_edge(v, (v + 1) % 10);
  for (VertexId u = 10; u < 18; ++u) {
    for (VertexId v = 18; v < 26; ++v) b.add_edge(u, v);
  }
  Graph g = b.build();
  const std::string path = write_store(g, "incompat.lmg", true, 5);
  auto view = store::BinaryGraphView::open(path);
  ASSERT_TRUE(view->has_rows());
  ASSERT_EQ(view->zone_size(), 16u);
  auto stored = solve_with_store(g, view, NeighborhoodRep::kBitset);
  EXPECT_EQ(stored.omega, 2u);
  EXPECT_EQ(stored.lazy_graph.rows_prebuilt, 0u);
  EXPECT_GT(stored.lazy_graph.bitset_built, 0u);

  // The same graph stored with a zone the incumbent covers adopts fine.
  const std::string wide = write_store(g, "compat.lmg", true, 1);
  auto wide_view = store::BinaryGraphView::open(wide);
  auto adopted = solve_with_store(g, wide_view, NeighborhoodRep::kBitset);
  EXPECT_EQ(adopted.omega, 2u);
  EXPECT_EQ(adopted.lazy_graph.rows_prebuilt, wide_view->zone_size());
  EXPECT_EQ(adopted.lazy_graph.bitset_built, 0u);
}

TEST(Store, StaleStoreIsIgnoredNotFatal) {
  // A prebuilt block whose sizes do not match the graph (stale store,
  // regenerated input) must be silently ignored: the solve recomputes.
  Graph g = gen::gnp(50, 0.2, 6);
  Graph other = gen::gnp(60, 0.2, 7);
  const std::string path = write_store(other, "stale.lmg", true, 1);
  auto view = store::BinaryGraphView::open(path);
  auto r = solve_with_store(g, view, NeighborhoodRep::kBitset);
  auto fresh = mc::lazy_mc(g);
  EXPECT_EQ(r.omega, fresh.omega);
  EXPECT_EQ(r.lazy_graph.rows_prebuilt, 0u);
}

}  // namespace
}  // namespace lazymc

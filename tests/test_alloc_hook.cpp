// Allocation-counting hook: verifies that steady-state NeighborSearch
// probes — re-probing a graph whose incumbent is already optimal, with a
// warmed SearchScratch and lazy graph — perform zero heap allocation.
//
// The hook replaces the global operator new/delete for THIS TEST BINARY
// ONLY and counts allocations made on the calling thread.  Under ASan/
// TSan the sanitizer owns the allocator, so the hook (and the test)
// deactivates itself there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "baselines/reference.hpp"
#include "graph/generators.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/incumbent.hpp"
#include "mc/neighbor_search.hpp"
#include "support/parallel.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LAZYMC_ALLOC_HOOK_ACTIVE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LAZYMC_ALLOC_HOOK_ACTIVE 0
#else
#define LAZYMC_ALLOC_HOOK_ACTIVE 1
#endif
#else
#define LAZYMC_ALLOC_HOOK_ACTIVE 1
#endif

namespace {
thread_local std::uint64_t g_thread_allocs = 0;
}  // namespace

#if LAZYMC_ALLOC_HOOK_ACTIVE

void* operator new(std::size_t size) {
  ++g_thread_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The aligned overloads matter now: DynamicBitset words, SparseWordSet
// bits, and the lazy graph's row block allocate with 64-byte
// alignment, which lands here rather
// than in the plain overload — without these the steady-state invariant
// would silently stop covering the hottest structures.
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_thread_allocs;
  void* p = nullptr;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  p = std::aligned_alloc(a, rounded ? rounded : a);
  if (p) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // LAZYMC_ALLOC_HOOK_ACTIVE

namespace lazymc {
namespace {

TEST(AllocHook, SteadyStateNeighborSearchProbesAreAllocationFree) {
#if !LAZYMC_ALLOC_HOOK_ACTIVE
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#else
  // Sparse power-law graph with a planted clique: once the incumbent
  // holds the optimum, re-probing every vertex dies in the filters —
  // the paper's steady state (Table III: a few per thousand survive).
  Graph g = gen::plant_clique(gen::rmat(10, 6, 0.55, 0.2, 0.2, 401), 14, 402);
  set_num_threads(1);  // probes run on this thread, against this counter

  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  Incumbent incumbent;
  incumbent.offer(baselines::max_clique_reference(g));
  ASSERT_GE(incumbent.size(), 14u);

  LazyGraph lazy(g, order, core.coreness, &incumbent.size_atomic());
  mc::SearchStats warm_stats;
  mc::NeighborSearchOptions opt;
  mc::SearchScratch scratch;

  // Warm-up pass: memoizes lazy neighborhoods and grows every scratch
  // container to its high-water mark.
  const VertexId n = lazy.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    if (lazy.coreness(v) >= incumbent.size()) {
      mc::neighbor_search(lazy, v, incumbent, opt, warm_stats, scratch);
    }
  }

  // Measured pass: identical probes must not touch the heap.
  mc::SearchStats stats;
  const std::uint64_t before = g_thread_allocs;
  std::uint64_t probes = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (lazy.coreness(v) >= incumbent.size()) {
      mc::neighbor_search(lazy, v, incumbent, opt, stats, scratch);
      ++probes;
    }
  }
  const std::uint64_t allocs = g_thread_allocs - before;

  ASSERT_GT(probes, 0u) << "test graph produced no steady-state probes";
  EXPECT_EQ(allocs, 0u) << "steady-state probes allocated " << allocs
                        << " times over " << probes << " probes";
  set_num_threads(0);
#endif
}

TEST(AllocHook, SolverReachingProbesAreAllocationFreeOnMcPath) {
#if !LAZYMC_ALLOC_HOOK_ACTIVE
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#else
  // Denser graph with the optimum as incumbent: probes reach the MC
  // branch-and-bound, whose frames/coloring buffers all live in the
  // scratch arena.
  Graph g = gen::gnp(120, 0.25, 403);
  set_num_threads(1);

  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  Incumbent incumbent;
  incumbent.offer(baselines::max_clique_reference(g));

  LazyGraph lazy(g, order, core.coreness, &incumbent.size_atomic());
  mc::SearchStats warm_stats;
  mc::NeighborSearchOptions opt;
  opt.density_threshold = 1.1;  // force every survivor onto the MC path
  mc::SearchScratch scratch;

  const VertexId n = lazy.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    mc::neighbor_search(lazy, v, incumbent, opt, warm_stats, scratch);
  }

  mc::SearchStats stats;
  const std::uint64_t before = g_thread_allocs;
  for (VertexId v = 0; v < n; ++v) {
    mc::neighbor_search(lazy, v, incumbent, opt, stats, scratch);
  }
  const std::uint64_t allocs = g_thread_allocs - before;

  EXPECT_GT(stats.solved_mc.load(), 0u)
      << "expected some probes to reach the MC solver";
  EXPECT_EQ(allocs, 0u) << "MC-path probes allocated " << allocs << " times";
  set_num_threads(0);
#endif
}

TEST(AllocHook, SolverReachingProbesAreAllocationFreeOnVcPath) {
#if !LAZYMC_ALLOC_HOOK_ACTIVE
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#else
  // Same graph, every survivor routed to MC-via-VC: the complement, the
  // per-depth branch frames and the LP bound's matching state all live
  // in the scratch arena, so refuting probes allocate nothing.
  Graph g = gen::gnp(120, 0.25, 403);
  set_num_threads(1);

  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  Incumbent incumbent;
  incumbent.offer(baselines::max_clique_reference(g));

  LazyGraph lazy(g, order, core.coreness, &incumbent.size_atomic());
  mc::SearchStats warm_stats;
  mc::NeighborSearchOptions opt;
  opt.density_threshold = 0;  // every survivor takes the k-VC path
  mc::SearchScratch scratch;

  const VertexId n = lazy.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    mc::neighbor_search(lazy, v, incumbent, opt, warm_stats, scratch);
  }

  mc::SearchStats stats;
  const std::uint64_t before = g_thread_allocs;
  for (VertexId v = 0; v < n; ++v) {
    mc::neighbor_search(lazy, v, incumbent, opt, stats, scratch);
  }
  const std::uint64_t allocs = g_thread_allocs - before;

  EXPECT_GT(stats.solved_vc.load(), 0u)
      << "expected some probes to reach the k-VC solver";
  EXPECT_GT(stats.vc_nodes.load(), 0u);
  EXPECT_EQ(allocs, 0u) << "VC-path probes allocated " << allocs << " times";
  set_num_threads(0);
#endif
}

}  // namespace
}  // namespace lazymc

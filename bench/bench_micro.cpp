// Microbenchmarks (google-benchmark) for the data-structure substrates:
// hopscotch set probes vs sorted binary search, intersection kernels with
// and without early exits, lazy-graph construction costs, and the
// ordered drain used by systematic_search.
//
// Beyond the google-benchmark registrations, `--shootout` runs the
// intersection-kernel shoot-out (serial hash vs prefetched batch hash vs
// word-parallel bitset vs sorted merge, across densities and θ) as an
// ASCII table, exported to JSON with `--json=PATH` like every other bench
// binary (schema "lazymc-bench-tables/1"); each cell is the median of 9
// interleaved timing rounds.  It first checks all seven
// dispatcher kernels against intersect_reference and exits 1 on any
// disagreement.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "hashset/hopscotch_set.hpp"
#include "intersect/intersect.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace lazymc {
namespace {

std::vector<VertexId> random_sorted(std::size_t n, std::uint64_t seed,
                                    std::uint64_t universe) {
  Rng rng(seed);
  std::vector<VertexId> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<VertexId>(rng.next_below(universe)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

void BM_HopscotchContains(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  auto keys = random_sorted(n, 1, n * 8);
  HopscotchSet set(keys.size());
  for (VertexId k : keys) set.insert(k);
  Rng rng(2);
  for (auto _ : state) {
    VertexId probe = static_cast<VertexId>(rng.next_below(n * 8));
    benchmark::DoNotOptimize(set.contains(probe));
  }
}
BENCHMARK(BM_HopscotchContains)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SortedContains(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  auto keys = random_sorted(n, 1, n * 8);
  SortedLookup look(keys);
  Rng rng(2);
  for (auto _ : state) {
    VertexId probe = static_cast<VertexId>(rng.next_below(n * 8));
    benchmark::DoNotOptimize(look.contains(probe));
  }
}
BENCHMARK(BM_SortedContains)->Arg(64)->Arg(1024)->Arg(16384);

void BM_IntersectSorted(benchmark::State& state) {
  auto a = random_sorted(static_cast<std::size_t>(state.range(0)), 3, 100000);
  auto b = random_sorted(static_cast<std::size_t>(state.range(0)), 4, 100000);
  std::vector<VertexId> out(std::min(a.size(), b.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(intersect_sorted(a, b, out.data()));
  }
}
BENCHMARK(BM_IntersectSorted)->Arg(256)->Arg(4096);

void BM_IntersectHash(benchmark::State& state) {
  auto a = random_sorted(static_cast<std::size_t>(state.range(0)), 3, 100000);
  auto b = random_sorted(static_cast<std::size_t>(state.range(0)), 4, 100000);
  HopscotchSet bs(b.size());
  for (VertexId x : b) bs.insert(x);
  std::vector<VertexId> out(a.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(probe_scan<Query::gt, Exits::none>(
        std::span<const VertexId>(a), bs, out.data(), -1));
  }
}
BENCHMARK(BM_IntersectHash)->Arg(256)->Arg(4096);

// Early-exit win: B is tiny relative to the threshold, so the exit fires
// after ~|A|-theta misses instead of scanning all of A.
void BM_SizeGtValEarlyExit(benchmark::State& state) {
  auto a = random_sorted(4096, 5, 1 << 20);
  auto b = random_sorted(64, 6, 1 << 20);  // nearly disjoint from a
  HopscotchSet bs(b.size());
  for (VertexId x : b) bs.insert(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(probe_scan<Query::size_gt_val>(
        std::span<const VertexId>(a), bs, nullptr, 60));
  }
}
BENCHMARK(BM_SizeGtValEarlyExit);

void BM_SizeGtValNoExit(benchmark::State& state) {
  auto a = random_sorted(4096, 5, 1 << 20);
  auto b = random_sorted(64, 6, 1 << 20);
  HopscotchSet bs(b.size());
  for (VertexId x : b) bs.insert(x);
  for (auto _ : state) {
    // Exact count then compare: the "no early exit" configuration.
    benchmark::DoNotOptimize(probe_scan<Query::size_gt_val, Exits::none>(
        std::span<const VertexId>(a), bs, nullptr, 60));
  }
}
BENCHMARK(BM_SizeGtValNoExit);

// Second early exit of intersect-size-gt-bool: A is a near-subset of B, so
// the success exit fires after ~theta+1 hits.
void BM_SizeGtBoolSecondExit(benchmark::State& state) {
  auto a = random_sorted(4096, 7, 1 << 18);
  HopscotchSet bs(a.size());
  for (VertexId x : a) bs.insert(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(probe_scan<Query::size_gt_bool>(
        std::span<const VertexId>(a), bs, nullptr, 32));
  }
}
BENCHMARK(BM_SizeGtBoolSecondExit);

void BM_SizeGtBoolNoSecondExit(benchmark::State& state) {
  auto a = random_sorted(4096, 7, 1 << 18);
  HopscotchSet bs(a.size());
  for (VertexId x : a) bs.insert(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probe_scan<Query::size_gt_bool, Exits::no_second>(
            std::span<const VertexId>(a), bs, nullptr, 32));
  }
}
BENCHMARK(BM_SizeGtBoolNoSecondExit);

void BM_LazyGraphConstructOne(benchmark::State& state) {
  Graph g = gen::rmat(12, 8, 0.57, 0.19, 0.19, 11);
  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  std::atomic<VertexId> incumbent{0};
  for (auto _ : state) {
    state.PauseTiming();
    LazyGraph lazy(g, order, core.coreness, &incumbent);
    state.ResumeTiming();
    benchmark::DoNotOptimize(lazy.hashed_neighborhood(g.num_vertices() - 1));
  }
}
BENCHMARK(BM_LazyGraphConstructOne);

// --- scheduler ---------------------------------------------------------------
// Replays the shape of the systematic phase on a medium suite graph: one
// simulated probe per vertex, cost growing with the vertex's coreness
// (high-coreness neighborhoods survive more filter rounds).  Level chunks
// are listed highest coreness first and drained in that order with no
// barriers (drain_in_order, as systematic_search does).

struct SchedWorkload {
  // levels[k] = vertices of coreness k (descending visit priority).
  std::vector<std::vector<VertexId>> levels;
  std::size_t num_vertices = 0;
};

const SchedWorkload& sched_workload() {
  static const SchedWorkload w = [] {
    Graph g = suite::make_instance("sinaweibo", suite::Scale::kMedium).graph;
    auto core = kcore::coreness(g);
    SchedWorkload wl;
    wl.levels.resize(static_cast<std::size_t>(core.degeneracy) + 1);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      wl.levels[core.coreness[v]].push_back(v);
    }
    wl.num_vertices = g.num_vertices();
    return wl;
  }();
  return w;
}

/// Simulated neighbor_search probe: a short LCG spin whose length scales
/// with the coreness level, so per-level cost is skewed like real work.
inline std::uint64_t simulated_probe(VertexId v, std::size_t level) {
  std::uint64_t acc = v + 1;
  const std::uint64_t iters = 8 * (level + 1);
  for (std::uint64_t i = 0; i < iters; ++i) {
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return acc;
}

void BM_SchedulerOrderedDrain(benchmark::State& state) {
  const SchedWorkload& w = sched_workload();
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const std::size_t participants = pool.num_threads();
  struct Chunk {
    std::uint32_t level;
    std::uint32_t begin;
    std::uint32_t end;
  };
  // Chunking mirrors systematic_search.
  std::vector<Chunk> worklist;
  for (std::size_t k = w.levels.size(); k-- > 0;) {
    const std::size_t size = w.levels[k].size();
    if (size == 0) continue;
    std::size_t chunk = (size + 4 * participants - 1) / (4 * participants);
    chunk = std::clamp<std::size_t>(chunk, 1, 64);
    for (std::size_t b = 0; b < size; b += chunk) {
      worklist.push_back({static_cast<std::uint32_t>(k),
                          static_cast<std::uint32_t>(b),
                          static_cast<std::uint32_t>(std::min(size, b + chunk))});
    }
  }
  for (auto _ : state) {
    drain_in_order(
        pool, worklist.size(),
        [&](std::size_t, std::size_t i) {
          const Chunk& c = worklist[i];
          const std::vector<VertexId>& level = w.levels[c.level];
          for (std::uint32_t v = c.begin; v < c.end; ++v) {
            benchmark::DoNotOptimize(simulated_probe(level[v], c.level));
          }
        },
        [] { return false; });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.num_vertices));
}
BENCHMARK(BM_SchedulerOrderedDrain)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_EagerRelabelWholeGraph(benchmark::State& state) {
  Graph g = gen::rmat(12, 8, 0.57, 0.19, 0.19, 11);
  auto core = kcore::coreness(g);
  auto order = kcore::order_by_coreness_degree(g, core.coreness);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kcore::relabel(g, order));
  }
}
BENCHMARK(BM_EagerRelabelWholeGraph);

// --- prefetched batch probe vs serial contains -----------------------------
// Large miss-heavy set: serial probing pays two dependent cache-line
// loads per element; the batched kernel overlaps them.

void BM_HashProbeSerial(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  auto b = random_sorted(n, 41, n * 8);
  HopscotchSet bs(b.size());
  for (VertexId x : b) bs.insert(x);
  auto a = random_sorted(16384, 42, n * 8);
  for (auto _ : state) {
    // theta < 0: the miss budget never trips, so the whole array probes.
    benchmark::DoNotOptimize(probe_scan<Query::size_gt_val>(
        std::span<const VertexId>(a), bs, nullptr, -1));
  }
}
BENCHMARK(BM_HashProbeSerial)->Arg(16384)->Arg(262144)->Arg(1 << 21);

void BM_HashProbeBatched(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  auto b = random_sorted(n, 41, n * 8);
  HopscotchSet bs(b.size());
  for (VertexId x : b) bs.insert(x);
  auto a = random_sorted(16384, 42, n * 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probe_scan<Query::size_gt_val, Exits::all, HopscotchSet, ProbeRing>(
            std::span<const VertexId>(a), bs, nullptr, -1));
  }
}
BENCHMARK(BM_HashProbeBatched)->Arg(16384)->Arg(262144)->Arg(1 << 21);

// --- word-parallel bitset kernel vs scalar hash probing --------------------

void BM_IntersectBitsetWord(benchmark::State& state) {
  const VertexId zone = 4096;
  auto a = random_sorted(2048, 43, zone);
  auto b = random_sorted(2048, 44, zone);
  SparseWordSet aw;
  aw.build({a.data(), a.size()}, 0);
  std::vector<std::uint64_t> words((zone + 63) / 64, 0);
  for (VertexId v : b) words[v >> 6] |= 1ULL << (v & 63);
  BitsetRow row{words.data(), 0, zone, static_cast<std::uint32_t>(b.size())};
  // theta must stay below |A| or the size guard short-circuits the kernel;
  // 512 mirrors the shoot-out's dense scenarios (exits mid-scan).
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        word_scan<Query::size_gt_val>(aw, row, nullptr, 512));
  }
}
BENCHMARK(BM_IntersectBitsetWord);

}  // namespace

// --- intersection-kernel shoot-out -----------------------------------------
// One table row per (density, theta) scenario; each cell is ns/op for the
// kernel answering the same intersect-size-gt-bool question.  Dense
// neighborhoods (A and B large fractions of a small zone) are where the
// word-parallel bitset kernel wins; sparse miss-heavy probing into a
// large hash set is where the prefetched batch probe wins.

namespace {

// Each timed kernel is run for kReps batches of a calibrated call count
// (~2 ms each), round-robin across the kernels of a row, so a stretch of
// machine noise hits every kernel alike; a cell is the median batch.
constexpr std::size_t kReps = 9;

std::size_t calibrate_iters(const std::function<void()>& fn) {
  std::size_t iters = 1;
  for (;;) {
    WallTimer t;
    for (std::size_t i = 0; i < iters; ++i) fn();
    if (t.elapsed() > 2e-3 || iters > (1u << 24)) return iters;
    iters *= 4;
  }
}

double batch_ns_per_op(const std::function<void()>& fn, std::size_t iters) {
  WallTimer t;
  for (std::size_t i = 0; i < iters; ++i) fn();
  return t.elapsed() / static_cast<double>(iters) * 1e9;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void run_intersect_shootout() {
  struct Scenario {
    const char* name;
    VertexId universe;  // zone size / id range
    std::size_t na, nb;
    std::int64_t theta;
  };
  // Densities are |B|/universe; theta sweeps failure-exit-heavy (high),
  // mid, and success-exit-heavy (low) regimes.  The sparse scenarios size
  // the hash set well past L2 (~1M elements -> 2M slots -> 16 MB of
  // buckets + bitmasks) so probes are genuinely memory-bound: that is the
  // regime the prefetched batch kernel targets, while the dense scenarios
  // (small zone, high hit rate) are the bitset kernel's home turf.
  const Scenario scenarios[] = {
      {"dense-90", 4096, 2048, 3686, 512},
      {"dense-90-hiT", 4096, 2048, 3686, 1843},
      {"dense-50", 4096, 2048, 2048, 512},
      {"dense-50-hiT", 4096, 2048, 2048, 1024},
      {"mid-10", 16384, 2048, 1638, 64},
      {"sparse-hit", 1 << 23, 16384, 1 << 21, 3400},
      {"sparse-miss", 1 << 23, 16384, 1 << 21, 4096},
  };
  bench::Table table("intersect-shootout",
                     {"scenario", "|A|", "|B|", "universe", "theta", "result",
                      "hash-serial ns", "hash-batched ns", "bitset-scalar ns",
                      "merge ns", "bitset/hash", "batch/serial",
                      "batch/serial range"});
  for (const Scenario& s : scenarios) {
    auto a = random_sorted(s.na, 91, s.universe);
    auto b = random_sorted(s.nb, 92, s.universe);
    HopscotchSet hs(b.size());
    for (VertexId x : b) hs.insert(x);
    SparseWordSet aw;
    aw.build({a.data(), a.size()}, 0);
    std::vector<std::uint64_t> words(
        (static_cast<std::size_t>(s.universe) + 63) / 64, 0);
    for (VertexId v : b) words[v >> 6] |= 1ULL << (v & 63);
    BitsetRow row{words.data(), 0, s.universe,
                  static_cast<std::uint32_t>(b.size())};
    std::span<const VertexId> as(a);
    const SortedLookup look(b);

    // The dispatcher's six kernels, each one of the three scans.  The
    // first four are timed below, in this order.
    constexpr Query kBool = Query::size_gt_bool;
    const std::pair<const char*, std::function<bool()>> kernels[] = {
        {"hash", [&] { return probe_scan<kBool>(as, hs, nullptr, s.theta); }},
        {"hash-batched",
         [&] {
           return probe_scan<kBool, Exits::all, HopscotchSet, ProbeRing>(
               as, hs, nullptr, s.theta);
         }},
        {"bitset-word",
         [&] { return word_scan<kBool>(aw, row, nullptr, s.theta); }},
        {"merge", [&] { return merge_scan<kBool>(as, b, nullptr, s.theta); }},
        {"bitset-probe",
         [&] { return probe_scan<kBool>(as, row, nullptr, s.theta); }},
        {"gallop",
         [&] { return probe_scan<kBool>(as, look, nullptr, s.theta); }},
    };
    const bool expected =
        static_cast<std::int64_t>(intersect_reference(a, b).size()) > s.theta;
    for (const auto& [kernel, run] : kernels) {
      if (run() != expected) {
        std::fprintf(stderr, "shootout: %s disagrees with the reference "
                     "on %s\n", kernel, s.name);
        std::exit(1);
      }
    }
    // The seventh kernel, csr-scan, checked only: B as a CSR row over
    // the ids of A ∪ B renumbered densely (identity map), A marked.
    {
      std::vector<VertexId> ids(a);
      ids.insert(ids.end(), b.begin(), b.end());
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      auto dense = [&](const std::vector<VertexId>& set) {
        std::vector<VertexId> out;
        for (VertexId x : set) {
          out.push_back(static_cast<VertexId>(
              std::lower_bound(ids.begin(), ids.end(), x) - ids.begin()));
        }
        return out;
      };
      const std::vector<VertexId> da = dense(a), db = dense(b);
      std::vector<VertexId> identity(ids.size());
      for (VertexId i = 0; i < identity.size(); ++i) identity[i] = i;
      IdMarks marks;
      marks.cover(0, static_cast<VertexId>(ids.size()));
      marks.mark(da);
      const bool got =
          csr_scan<Query::size_gt_bool>(marks, db, identity.data(), s.theta);
      marks.clear(da);
      if (got != expected) {
        std::fprintf(stderr, "shootout: csr-scan disagrees with the "
                     "reference on %s\n", s.name);
        std::exit(1);
      }
    }
    // Time the first four kernels.  Serial and batched hash probes run
    // back to back, in alternating order, so each round gives one
    // batch/serial ratio; the table prints their median and range.
    constexpr std::size_t kTimed = 4;
    std::function<void()> timed[kTimed];
    std::size_t iters[kTimed];
    for (std::size_t k = 0; k < kTimed; ++k) {
      timed[k] = [&, k] { benchmark::DoNotOptimize(kernels[k].second()); };
      iters[k] = calibrate_iters(timed[k]);
    }
    std::vector<double> ns[kTimed];
    std::vector<double> ratios;
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      const std::size_t first = rep % 2;
      for (std::size_t k : {first, 1 - first, std::size_t{2}, std::size_t{3}}) {
        ns[k].push_back(batch_ns_per_op(timed[k], iters[k]));
      }
      ratios.push_back(ns[0].back() / ns[1].back());
    }
    const double hash_ns = median(ns[0]);
    const double batch_ns = median(ns[1]);
    const double bitset_ns = median(ns[2]);
    const double merge_ns = median(ns[3]);
    const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
    table.add_row(
        {s.name, std::to_string(a.size()), std::to_string(b.size()),
         std::to_string(s.universe), std::to_string(s.theta),
         expected ? "true" : "false", bench::fmt(hash_ns, 1),
         bench::fmt(batch_ns, 1), bench::fmt(bitset_ns, 1),
         bench::fmt(merge_ns, 1), bench::fmt(hash_ns / bitset_ns, 2),
         bench::fmt(median(ratios), 2),
         bench::fmt(*lo, 2) + "-" + bench::fmt(*hi, 2)});
  }
  table.print();
}

}  // namespace
}  // namespace lazymc

// Custom main: strips the repo-convention flags (--shootout,
// --json=PATH) before handing the rest to
// google-benchmark, whose BENCHMARK_MAIN would reject them as
// unrecognized.
int main(int argc, char** argv) {
  bool shootout = false;
  std::vector<char*> keep;
  keep.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shootout") {
      shootout = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      lazymc::bench::enable_json_export(arg.substr(7));
    } else {
      keep.push_back(argv[i]);
    }
  }
  if (shootout) {
    lazymc::run_intersect_shootout();
    return 0;
  }
  int kargc = static_cast<int>(keep.size());
  benchmark::Initialize(&kargc, keep.data());
  if (benchmark::ReportUnrecognizedArguments(kargc, keep.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Ablation sweeps for design choices not covered by a dedicated paper
// figure:
//   (a) rounds of induced-degree filtering (paper: "two iterations ...
//       are sufficient"; the rounds stop early at a fixpoint, and a round
//       that still removes vertices pays its per-round cost) — sweep 1..4
//       rounds;
//   (b) number of top-degree seeds K in the degree-based heuristic
//       (Algorithm 5) — sweep K in {1, 4, 16, 64};
//   (c) vertex order: parallel (coreness, degree) sort vs the sequential
//       Matula–Beck peeling order (Section IV-F).
#include <cstdio>

#include "common.hpp"
#include "mc/lazymc.hpp"

using namespace lazymc;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  std::printf("Ablation (a): degree-filter rounds, time normalized to 2 "
              "rounds (the paper default)\n\n");
  {
    bench::Table table({"graph", "r=1", "r=2[s]", "r=3", "r=4",
                        "searched r=1", "searched r=2", "searched r=4"});
    for (auto& inst : bench::load_suite(opt)) {
      const Graph& g = inst.graph;
      double base = 0;
      double times[5] = {0, 0, 0, 0, 0};
      std::uint64_t searched[5] = {0, 0, 0, 0, 0};
      for (unsigned rounds = 1; rounds <= 4; ++rounds) {
        mc::LazyMCConfig cfg;
        cfg.degree_filter_rounds = rounds;
        cfg.time_limit_seconds = opt.timeout;
        mc::LazyMCResult last;
        auto timing = bench::time_runs(opt.repeats, [&] {
          last = mc::lazy_mc(g, cfg);
        });
        times[rounds] = timing.mean_seconds;
        searched[rounds] = last.search.pass_filter3;
        if (rounds == 2) base = timing.mean_seconds;
      }
      auto rel = [&](unsigned r) {
        return bench::fmt(base > 0 ? times[r] / base : 1.0, 2);
      };
      table.add_row({inst.name, rel(1), bench::fmt(times[2]), rel(3), rel(4),
                     std::to_string(searched[1]), std::to_string(searched[2]),
                     std::to_string(searched[4])});
    }
    table.print();
  }

  std::printf("\nAblation (b): degree-heuristic seed count K, incumbent "
              "found and total time\n\n");
  {
    bench::Table table({"graph", "w_d K=1", "K=4", "K=16", "K=64",
                        "t K=1[s]", "t K=16[s]", "t K=64[s]"});
    for (auto& inst : bench::load_suite(opt)) {
      const Graph& g = inst.graph;
      VertexId wd[4] = {0, 0, 0, 0};
      double times[4] = {0, 0, 0, 0};
      const VertexId ks[4] = {1, 4, 16, 64};
      for (int i = 0; i < 4; ++i) {
        mc::LazyMCConfig cfg;
        cfg.heuristic_top_k = ks[i];
        cfg.time_limit_seconds = opt.timeout;
        mc::LazyMCResult last;
        auto timing = bench::time_runs(opt.repeats, [&] {
          last = mc::lazy_mc(g, cfg);
        });
        wd[i] = last.heuristic_degree_omega;
        times[i] = timing.mean_seconds;
      }
      table.add_row({inst.name, std::to_string(wd[0]), std::to_string(wd[1]),
                     std::to_string(wd[2]), std::to_string(wd[3]),
                     bench::fmt(times[0]), bench::fmt(times[2]),
                     bench::fmt(times[3])});
    }
    table.print();
  }
  std::printf(
      "\nA better early incumbent (larger w_d) shrinks the k-core "
      "computation, the must\nsubgraph and every later filter.\n");

  std::printf("\nAblation (c): vertex order — (coreness,degree) vs peeling "
              "(sequential)\n\n");
  {
    bench::Table table({"graph", "core-deg[s]", "peeling[s]", "peel (x)"});
    for (auto& inst : bench::load_suite(opt)) {
      const Graph& g = inst.graph;
      double t[2] = {0, 0};
      const mc::VertexOrderKind kinds[2] = {
          mc::VertexOrderKind::kCorenessDegree, mc::VertexOrderKind::kPeeling};
      for (int i = 0; i < 2; ++i) {
        mc::LazyMCConfig cfg;
        cfg.vertex_order = kinds[i];
        cfg.time_limit_seconds = opt.timeout;
        t[i] = bench::time_runs(opt.repeats, [&] { mc::lazy_mc(g, cfg); })
                   .mean_seconds;
      }
      table.add_row({inst.name, bench::fmt(t[0]), bench::fmt(t[1]),
                     bench::fmt(t[0] > 0 ? t[1] / t[0] : 1.0, 2)});
    }
    table.print();
  }
  return 0;
}

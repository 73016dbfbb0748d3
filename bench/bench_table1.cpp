// Table I: characterization of the graph suite — |V|, |E|, max degree,
// degeneracy d, omega, clique-core gap g = d+1-omega, and the incumbent
// sizes found by degree-based and coreness-based heuristic search.
#include <cstdio>

#include "common.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/heuristic.hpp"
#include "mc/lazymc.hpp"

using namespace lazymc;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  std::printf("Table I: graph characterization (scale=%s)\n\n",
              opt.scale == suite::Scale::kMedium  ? "medium"
              : opt.scale == suite::Scale::kSmall ? "small"
                                                  : "tiny");
  bench::Table table({"graph", "|V|", "|E|", "Delta", "d", "omega", "g",
                      "w_d", "w_h"});

  for (auto& inst : bench::load_suite(opt)) {
    const Graph& g = inst.graph;
    kcore::CoreDecomposition core = kcore::coreness(g);

    // Heuristic incumbents, measured in isolation as the paper reports.
    Incumbent deg_inc;
    mc::degree_based_heuristic(g, deg_inc);
    VertexId w_d = deg_inc.size();

    kcore::VertexOrder order =
        kcore::order_by_coreness_degree(g, core.coreness);
    Incumbent core_inc;
    // Start the coreness heuristic from the degree heuristic's incumbent,
    // matching LazyMC's pipeline (Algorithm 1).
    core_inc.offer(deg_inc.snapshot());
    LazyGraph lazy(g, order, core.coreness, &core_inc.size_atomic());
    mc::coreness_based_heuristic(lazy, core_inc);
    VertexId w_h = core_inc.size();

    mc::LazyMCConfig cfg;
    cfg.time_limit_seconds = opt.timeout;
    auto exact = mc::lazy_mc(g, cfg);

    long long gap = static_cast<long long>(core.degeneracy) + 1 -
                    static_cast<long long>(exact.omega);
    table.add_row({inst.name, std::to_string(g.num_vertices()),
                   std::to_string(g.num_edges()),
                   std::to_string(g.max_degree()),
                   std::to_string(core.degeneracy),
                   std::to_string(exact.omega) +
                       (exact.timed_out ? "*" : ""),
                   std::to_string(gap), std::to_string(w_d),
                   std::to_string(w_h)});
  }
  table.print();
  std::printf(
      "\nw_d / w_h: incumbent after degree-/coreness-based heuristic "
      "search; * = timed out (omega is a lower bound).\n");
  return 0;
}

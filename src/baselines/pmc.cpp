#include "baselines/pmc.hpp"

#include <algorithm>

#include "graph/subgraph.hpp"
#include "intersect/intersect.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "mc/bb_solver.hpp"
#include "mc/incumbent.hpp"
#include "support/control.hpp"
#include "support/parallel.hpp"

namespace lazymc::baselines {

BaselineResult pmc_solve(const Graph& g, const PmcOptions& options) {
  BaselineResult result;
  const VertexId n = g.num_vertices();
  if (n == 0) return result;

  SolveControl control(options.time_limit_seconds);

  // Full k-core decomposition and an *eagerly* relabelled graph — the
  // up-front cost LazyMC's lazy representation avoids.
  kcore::CoreDecomposition core = kcore::coreness(g);
  kcore::VertexOrder order =
      kcore::order_by_coreness_degree(g, core.coreness);
  Graph relabelled = kcore::relabel(g, order);

  std::vector<VertexId> coreness_new(n);
  for (VertexId v = 0; v < n; ++v) {
    coreness_new[v] = core.coreness[order.new_to_orig[v]];
  }

  Incumbent incumbent;

  // Coreness-based heuristic: greedy growth from the first vertex of each
  // coreness level, taking the highest-numbered candidate each step.
  {
    std::vector<VertexId> seeds;
    VertexId prev = kInvalidVertex;
    for (VertexId v = 0; v < n; ++v) {
      if (coreness_new[v] != prev) {
        seeds.push_back(v);
        prev = coreness_new[v];
      }
    }
    parallel_for(0, seeds.size(), [&](std::size_t i) {
      std::uint64_t stop_counter = 0;
      if (control.should_stop(stop_counter)) return;
      VertexId v = seeds[i];
      auto nbrs = relabelled.neighbors(v);
      std::vector<VertexId> candidates(
          std::upper_bound(nbrs.begin(), nbrs.end(), v), nbrs.end());
      std::vector<VertexId> clique{v};
      std::vector<VertexId> buffer(candidates.size());
      while (!candidates.empty()) {
        VertexId u = candidates.back();
        candidates.pop_back();
        clique.push_back(u);
        auto u_nbrs = relabelled.neighbors(u);
        std::size_t kept = intersect_sorted(candidates, u_nbrs, buffer.data());
        candidates.assign(buffer.begin(), buffer.begin() + kept);
      }
      std::vector<VertexId> orig;
      orig.reserve(clique.size());
      for (VertexId u : clique) orig.push_back(order.new_to_orig[u]);
      incumbent.offer(orig);
    }, 1);
  }

  // Systematic search: high coreness first, right neighborhoods solved
  // by coloring B&B.  Only the coreness pruning rule is applied before
  // searching (no advance degree filtering).  The bound only grows, so
  // the vertices below it at the start, the lowest relabelled ids, are
  // never visited.
  {
    const std::size_t live = static_cast<std::size_t>(
        coreness_new.end() - std::lower_bound(coreness_new.begin(),
                                              coreness_new.end(),
                                              incumbent.size()));
    parallel_for(0, live, [&](std::size_t i) {
      if (control.cancelled()) return;
      const VertexId v = n - 1 - static_cast<VertexId>(i);  // high first
      VertexId bound = incumbent.size();
      if (coreness_new[v] < bound) return;
      auto nbrs = relabelled.neighbors(v);
      std::vector<VertexId> right(
          std::upper_bound(nbrs.begin(), nbrs.end(), v), nbrs.end());
      if (right.size() < bound) return;
      DenseSubgraph sub = induce_dense(relabelled, right);
      mc::BBOptions opt;
      opt.lower_bound = bound > 0 ? bound - 1 : 0;
      opt.live_bound = nullptr;
      opt.control = &control;
      mc::BBResult r = mc::solve_mc_dense(sub, opt);
      if (!r.clique.empty()) {
        std::vector<VertexId> clique{order.new_to_orig[v]};
        for (VertexId local : r.clique) {
          clique.push_back(order.new_to_orig[sub.vertices[local]]);
        }
        incumbent.offer(clique);
      }
    }, 1);
  }

  result.clique = incumbent.snapshot();
  std::sort(result.clique.begin(), result.clique.end());
  result.omega = static_cast<VertexId>(result.clique.size());
  result.timed_out = control.cancelled();
  return result;
}

}  // namespace lazymc::baselines

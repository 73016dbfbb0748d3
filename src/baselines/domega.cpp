#include "baselines/domega.hpp"

#include <algorithm>

#include "graph/subgraph.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "support/control.hpp"
#include "vc/mc_via_vc.hpp"

namespace lazymc::baselines {
namespace {

/// Greedy clique from the highest-coreness vertex, used as the lower
/// bound priming both gap-search strategies.
std::vector<VertexId> greedy_clique(const Graph& relabelled,
                                    const std::vector<VertexId>& coreness_new) {
  const VertexId n = relabelled.num_vertices();
  if (n == 0) return {};
  VertexId v = n - 1;  // highest coreness after relabelling
  (void)coreness_new;
  std::vector<VertexId> clique{v};
  auto nbrs = relabelled.neighbors(v);
  std::vector<VertexId> candidates(nbrs.begin(), nbrs.end());
  while (!candidates.empty()) {
    VertexId u = candidates.back();
    candidates.pop_back();
    clique.push_back(u);
    auto u_nbrs = relabelled.neighbors(u);
    std::vector<VertexId> next;
    std::set_intersection(candidates.begin(), candidates.end(),
                          u_nbrs.begin(), u_nbrs.end(),
                          std::back_inserter(next));
    candidates = std::move(next);
  }
  return clique;
}

/// Decides whether a clique of size >= target exists; if so returns it
/// (relabelled ids).  Scans ego networks of eligible vertices and decides
/// each with k-VC on the complement.
std::vector<VertexId> find_clique_of_size(
    const Graph& relabelled, const std::vector<VertexId>& coreness_new,
    VertexId target, const SolveControl& control) {
  const VertexId n = relabelled.num_vertices();
  if (target <= 1) return n > 0 ? std::vector<VertexId>{0} : std::vector<VertexId>{};
  for (VertexId v = n; v-- > 0;) {
    if (control.cancelled()) return {};
    if (coreness_new[v] + 1 < target) continue;
    auto nbrs = relabelled.neighbors(v);
    std::vector<VertexId> ego(std::upper_bound(nbrs.begin(), nbrs.end(), v),
                              nbrs.end());
    // Members must themselves have enough coreness.
    std::erase_if(ego, [&](VertexId u) { return coreness_new[u] + 1 < target; });
    if (ego.size() + 1 < target) continue;
    DenseSubgraph sub = induce_dense(relabelled, ego);
    // Need a clique of size target-1 inside the ego network.
    vc::McViaVcResult r =
        vc::max_clique_via_vc(sub, target - 2, &control);
    if (r.timed_out) return {};
    if (!r.clique.empty()) {
      std::vector<VertexId> clique{v};
      for (VertexId local : r.clique) clique.push_back(sub.vertices[local]);
      return clique;
    }
  }
  return {};
}

}  // namespace

BaselineResult domega_solve(const Graph& g, DomegaMode mode,
                            const DomegaOptions& options) {
  BaselineResult result;
  const VertexId n = g.num_vertices();
  if (n == 0) return result;

  SolveControl control(options.time_limit_seconds);

  kcore::CoreDecomposition core = kcore::coreness(g);
  kcore::VertexOrder order =
      kcore::order_by_coreness_degree(g, core.coreness);
  Graph relabelled = kcore::relabel(g, order);
  std::vector<VertexId> coreness_new(n);
  for (VertexId v = 0; v < n; ++v) {
    coreness_new[v] = core.coreness[order.new_to_orig[v]];
  }

  const VertexId upper = core.degeneracy + 1;  // omega <= d + 1
  std::vector<VertexId> best = greedy_clique(relabelled, coreness_new);
  VertexId lower = static_cast<VertexId>(best.size());  // omega >= |best|

  if (mode == DomegaMode::kLinearScan) {
    // Gap 0, 1, 2, ...: first feasible target is the maximum.
    for (VertexId target = upper; target > lower; --target) {
      if (control.cancelled()) break;
      std::vector<VertexId> found =
          find_clique_of_size(relabelled, coreness_new, target, control);
      if (!found.empty()) {
        best = std::move(found);
        break;
      }
    }
  } else {
    // Binary search on the achievable clique size in [lower, upper].
    VertexId lo = lower, hi = upper;
    while (lo < hi && !control.cancelled()) {
      VertexId mid = lo + (hi - lo + 1) / 2;
      std::vector<VertexId> found =
          find_clique_of_size(relabelled, coreness_new, mid, control);
      if (!found.empty()) {
        best = std::move(found);
        lo = static_cast<VertexId>(best.size());
        if (lo >= hi) break;
      } else {
        if (control.cancelled()) break;  // inconclusive, not a proof
        hi = mid - 1;
      }
    }
  }

  result.clique.reserve(best.size());
  for (VertexId v : best) result.clique.push_back(order.new_to_orig[v]);
  std::sort(result.clique.begin(), result.clique.end());
  result.omega = static_cast<VertexId>(result.clique.size());
  result.timed_out = control.cancelled();
  return result;
}

}  // namespace lazymc::baselines

#include "vc/mc_via_vc.hpp"

#include <algorithm>

namespace lazymc::vc {

McViaVcResult max_clique_via_vc(const DenseSubgraph& s, VertexId lower_bound,
                                const SolveControl* control,
                                std::uint64_t node_budget,
                                VcScratch* scratch,
                                const std::atomic<VertexId>* live_bound,
                                VertexId live_bound_offset) {
  McViaVcResult out;
  const std::size_t n = s.size();
  if (n == 0 || n <= lower_bound) return out;

  VcScratch local;
  VcScratch& sc = scratch ? *scratch : local;
  s.complement_into(sc.comp);
  const DenseSubgraph& comp = sc.comp;
  KvcOptions opt;
  opt.control = control;

  // Clique size c in s  <=>  VC size n - c in comp.
  // Feasibility of "clique >= c" is monotone decreasing in c.  The usual
  // answer is "nothing above the bound", so the first probe is the
  // smallest interesting size lo: if even that fails, one probe settles
  // the call.  Only after a success does the search bisect the rest of
  // [lo, hi] for the largest feasible c.
  std::size_t lo = lower_bound + 1;  // smallest interesting clique size
  std::size_t hi = n;                // largest possible
  std::vector<VertexId> best_cover;
  bool found = false;

  while (lo <= hi) {
    if (live_bound) {
      // A concurrently grown incumbent makes probes at or below its size
      // pointless; raising lo retires that part of the range outright.
      VertexId live = live_bound->load(std::memory_order_relaxed);
      live = live > live_bound_offset ? live - live_bound_offset : 0;
      if (static_cast<std::size_t>(live) + 1 > lo) {
        lo = static_cast<std::size_t>(live) + 1;
        if (lo > hi) break;
      }
    }
    std::size_t c = found ? lo + (hi - lo) / 2 : lo;
    if (node_budget != 0) {
      if (out.nodes >= node_budget) {
        out.budget_exhausted = true;
        return out;
      }
      opt.max_nodes = node_budget - out.nodes;
    }
    KvcResult r = solve_kvc(comp, static_cast<std::int64_t>(n - c), opt,
                            sc.kvc);
    out.nodes += r.nodes;
    if (r.timed_out) {
      out.timed_out = true;
      return out;
    }
    if (r.budget_exhausted) {
      out.budget_exhausted = true;
      return out;
    }
    if (r.feasible) {
      found = true;
      best_cover = std::move(r.cover);
      // The cover may beat its k: its clique already has n - |cover|.
      lo = n - best_cover.size() + 1;
    } else {
      hi = c - 1;  // c >= 1, and before any success this ends the loop
    }
  }
  if (!found) return out;

  // The clique is the complement of the cover within s.
  std::vector<char>& in_cover = sc.in_cover;
  in_cover.assign(n, 0);
  for (VertexId v : best_cover) in_cover[v] = 1;
  for (std::size_t v = 0; v < n; ++v) {
    if (!in_cover[v]) out.clique.push_back(static_cast<VertexId>(v));
  }
  return out;
}

}  // namespace lazymc::vc

#include "mc/bb_solver.hpp"

#include <algorithm>

namespace lazymc::mc {
namespace {

class Searcher {
 public:
  Searcher(const DenseSubgraph& g, const BBOptions& opt, MCScratch& scratch)
      : g_(g), opt_(opt), scratch_(scratch), best_size_(opt.lower_bound) {}

  BBResult run() {
    const std::size_t n = g_.size();
    // Depth never exceeds n + 1, so pre-sizing keeps frame references
    // stable across the recursion (and allocation-free once the pool's
    // high-water mark covers n).
    if (scratch_.frames.size() < n + 1) scratch_.frames.resize(n + 1);
    scratch_.best.clear();
    scratch_.current.clear();
    DynamicBitset& p = scratch_.root;
    p.reinit(n);
    for (std::size_t v = 0; v < n; ++v) p.set(v);
    expand(p, 0);

    BBResult out;
    if (!scratch_.best.empty()) {
      out.clique.assign(scratch_.best.begin(), scratch_.best.end());
    }
    out.nodes = nodes_;
    out.timed_out = timed_out_;
    return out;
  }

 private:
  VertexId bound() const {
    VertexId b = best_size_;
    if (opt_.live_bound) {
      VertexId live = opt_.live_bound->load(std::memory_order_relaxed);
      live = live > opt_.live_bound_offset ? live - opt_.live_bound_offset
                                           : 0;
      b = std::max(b, live);
    }
    return b;
  }

  void expand(const DynamicBitset& p, std::size_t depth) {
    ++nodes_;
    if (opt_.control && opt_.control->should_stop(stop_counter_)) {
      timed_out_ = true;
      return;
    }
    std::vector<VertexId>& current = scratch_.current;
    if (!p.any()) {
      if (current.size() > best_size_) {
        best_size_ = static_cast<VertexId>(current.size());
        scratch_.best.assign(current.begin(), current.end());
      }
      return;
    }
    MCScratch::Frame& f = scratch_.frames[depth];
    greedy_color_into(g_, p, scratch_.color, f.coloring);
    f.rest = p;
    // Expand in reverse color order: highest-colored vertices first.
    for (std::size_t idx = f.coloring.order.size(); idx-- > 0;) {
      if (timed_out_) return;
      VertexId v = f.coloring.order[idx];
      // Prune: every remaining candidate has color <= coloring.color[idx],
      // so no clique through them can beat the bound.
      const VertexId potential = static_cast<VertexId>(
          current.size() + f.coloring.color[idx]);
      if (potential <= bound()) return;
      current.push_back(v);
      f.next.assign_and(f.rest, g_.adj[v]);
      expand(f.next, depth + 1);
      current.pop_back();
      f.rest.reset(v);
    }
  }

  const DenseSubgraph& g_;
  const BBOptions& opt_;
  MCScratch& scratch_;
  VertexId best_size_;
  std::uint64_t nodes_ = 0;
  std::uint64_t stop_counter_ = 0;
  bool timed_out_ = false;
};

}  // namespace

BBResult solve_mc_dense(const DenseSubgraph& g, const BBOptions& options,
                        MCScratch& scratch) {
  Searcher searcher(g, options, scratch);
  return searcher.run();
}

BBResult solve_mc_dense(const DenseSubgraph& g, const BBOptions& options) {
  MCScratch scratch;
  return solve_mc_dense(g, options, scratch);
}

}  // namespace lazymc::mc

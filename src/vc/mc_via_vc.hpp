// Maximum clique via k-Vertex-Cover on the complement (Section IV-E).
//
// A clique of size c in S corresponds to a vertex cover of size |S| - c in
// the complement of S.  LazyMC routes *dense* subgraphs here: their
// complements are sparse, where the VC kernelisation rules shine.  Like
// dOmega we use repeated k-VC feasibility probes, but within a single
// neighborhood's plausible range [lower_bound+1, |S|], and probe-first:
// most calls only ask "is there a clique above the bound?" and the answer
// is usually no, so the first probe is c = lower_bound+1 (or higher if the
// live incumbent has grown).  When it fails, that one probe is the whole
// call; only a success leads to a binary search of the sizes above it.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/subgraph.hpp"
#include "support/control.hpp"
#include "vc/kvc.hpp"

namespace lazymc::vc {

struct McViaVcResult {
  /// A clique strictly larger than lower_bound in local ids, empty if the
  /// true maximum does not exceed the bound.  When non-empty this is a
  /// *maximum* clique of the subgraph.
  std::vector<VertexId> clique;
  std::uint64_t nodes = 0;  // total k-VC branch nodes over all probes
  bool timed_out = false;
  /// True when the node budget was exhausted before an answer; the caller
  /// should fall back to the MC solver (adaptive algorithmic choice —
  /// the paper notes "a precise prediction of what algorithm is most
  /// efficient is challenging").
  bool budget_exhausted = false;
};

/// Reusable buffers for max_clique_via_vc: the complement subgraph and
/// the cover-membership marks are recycled across probes when a scratch
/// is supplied (one instance per thread).
struct VcScratch {
  DenseSubgraph comp;
  std::vector<char> in_cover;
  KvcScratch kvc;
};

/// Finds the maximum clique of `s` if it is larger than `lower_bound`.
/// `node_budget` caps the total k-VC branch nodes across all probes
/// (0 = unlimited); when exceeded, the result reports budget_exhausted
/// and the caller decides how to proceed.  `scratch` (optional) recycles
/// the complement-extraction buffers across calls.
///
/// `live_bound` (optional) is a concurrently growing incumbent size,
/// re-read before every feasibility probe after subtracting
/// `live_bound_offset` (saturating): probes for clique sizes the live
/// incumbent already covers are skipped, so a bound raised by another
/// thread mid-solve raises the first probe or retires the remaining
/// binary-search range.  With a live bound the result is maximum
/// *relative to the live bound* — a clique no larger than it may be
/// elided, which is harmless for callers publishing into that same
/// incumbent.
McViaVcResult max_clique_via_vc(const DenseSubgraph& s, VertexId lower_bound,
                                const SolveControl* control = nullptr,
                                std::uint64_t node_budget = 0,
                                VcScratch* scratch = nullptr,
                                const std::atomic<VertexId>* live_bound =
                                    nullptr,
                                VertexId live_bound_offset = 0);

}  // namespace lazymc::vc

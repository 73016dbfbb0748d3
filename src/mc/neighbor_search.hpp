// Systematic search (paper Section IV-D, Algorithms 7 and 8).
//
// NeighborSearch proves, for one vertex v, that no clique larger than the
// incumbent passes through v's right-neighborhood — or finds one.  It is
// optimized for *proving absence*: degree filters remove candidates
// before any recursive search starts, and most neighborhoods die in the
// filters (Table III: a few per thousand survive).
//
//   filter 1      keep u with coreness(u) >= |C*|;
//   filters 2, 3  keep u with |N(u) ∩ N| > |C*| - 2 (intersect-size-gt-bool),
//                 repeated for up to degree_filter_rounds rounds and
//                 stopped at a fixpoint; filter 2 is round 1, filter 3 the
//                 last round run.
//
// The extracted subgraph's density drives algorithmic choice (Section
// IV-E): densities above `density_threshold` route to k-VC on the
// complement, the rest to the coloring B&B MC solver.
//
// Parallel runtime (systematic_search): the per-vertex subproblems are
// *not* run as one barriered parallel_for per coreness level.  Instead a
// single descending-coreness worklist — probe chunks first, then every
// level's vertices chunked — is drained by all participants, which claim
// chunks one at a time in list order (drain_in_order), so each starts on
// the highest-coreness work left.
// Each chunk carries its level's coreness; `incumbent.size()` is re-read
// when the chunk is *claimed*, so a bound raised anywhere retires whole
// chunks without touching their vertices (stats.retired_chunks).  Every
// participant owns a SearchScratch arena, making steady-state probes
// allocation-free, and a SearchTally of plain counters, so the filters'
// per-intersection counts never touch a shared cache line.
//
// Nothing is pushed while the drain runs: each surviving neighborhood is
// solved to completion by the participant that probed it (Table III: the
// survivors are few and small), so the drain ends when the list is
// exhausted.
#pragma once

#include <cstdint>
#include <vector>

#include "lazygraph/lazy_graph.hpp"
#include "mc/bb_solver.hpp"
#include "mc/incumbent.hpp"
#include "mc/intersect_policy.hpp"
#include "mc/search_counters.hpp"
#include "support/control.hpp"
#include "vc/mc_via_vc.hpp"

namespace lazymc::mc {

/// Per-thread scratch arena for the systematic search.  Holds every
/// intermediate container a NeighborSearch probe needs — candidate
/// vectors, the pooled dense subgraph, branch-and-bound frames, and the
/// k-VC complement — so that once its capacities reach the workload's
/// high-water mark, steady-state probes perform zero heap allocation.
/// Not thread-safe: one instance per worker.
struct SearchScratch {
  std::vector<VertexId> n_set;    // surviving candidates
  std::vector<VertexId> kept;     // filter output, swapped with n_set
  std::vector<VertexId> clique;   // publish staging (original ids)
  SparseWordSet a_words;          // word form of n_set for bitset kernels
  AlignedWords and_words;   // induce_from_lazy's hit words, one
                                  // per occupied word of a_words
  IdMarks marks;                  // n_set's marks for CSR views, over the
                                  // ids of coreness >= the bound; 32-bit,
                                  // as extraction marks local id + 1
  DenseSubgraph sub;              // pooled induced subgraph
  MCScratch mc;                   // solve_mc_dense frames
  vc::VcScratch vc;               // complement pool for the k-VC route
};

/// Ignored; kept only because lmcbench/main.cpp reads it.
enum class SplitMode { kAuto, kOn, kOff };

struct NeighborSearchOptions {
  /// Density above which subproblems go to k-VC.  The paper quotes 10%
  /// for its headline results but observes vertex cover being selected
  /// "when the density of the subgraph is 50% or higher" (Fig. 3) and
  /// that 30-50%-density subgraphs often run faster as MC (Fig. 6); with
  /// this repo's basic k-VC solver 0.6 is the robust default.  Swept by
  /// bench_fig6.
  double density_threshold = 0.60;
  /// Rounds of induced-degree filtering.  The paper uses 2 ("two
  /// iterations of degree-based filtering are sufficient to exclude
  /// search for the majority of neighborhoods") but notes the filter
  /// could run to a fixpoint; rounds stop early when nothing is removed.
  /// 0 runs one round.  Swept by bench_ablation's section (a).
  unsigned degree_filter_rounds = 2;
  // Ignored; kept only because lmcbench/main.cpp reads it.
  bool color_prune = false;
  /// Adaptive algorithmic choice: when a subgraph routed to k-VC exceeds
  /// this branch-node budget, abandon the probe and re-solve with the MC
  /// branch-and-bound (the density heuristic mispredicted).  Scaled by
  /// the subgraph size; 0 disables the fallback.  The paper notes that
  /// "a precise prediction of what algorithm is most efficient is
  /// challenging" — this bounds the cost of a misprediction.
  std::uint64_t vc_node_budget_per_vertex = 2000;
  // Ignored; kept only because lmcbench/main.cpp reads it.
  bool pre_extraction_density = false;
  SplitMode split_mode = SplitMode::kAuto;
  VertexId split_min_cands = 128;
  std::uint64_t split_min_work = 0;
  unsigned split_depth = 2;
  IntersectPolicy intersect;
  const SolveControl* control = nullptr;
};

/// Algorithm 8: searches the right-neighborhood of relabelled vertex v and
/// offers any improving clique (original ids) to the incumbent.  All
/// intermediate state lives in `scratch` and the search counts go to
/// `tally` (one of each per thread); kernel counts go wherever
/// `options.intersect` points them.
void neighbor_search(LazyGraph& h, VertexId v, Incumbent& incumbent,
                     const NeighborSearchOptions& options, SearchTally& tally,
                     SearchScratch& scratch);

/// The same probe counted into shared totals: a private tally is flushed
/// into `stats`, and its kernel counts into `options.intersect.counters`,
/// as the call returns.  For one-off probes and tests; allocation-free.
void neighbor_search(LazyGraph& h, VertexId v, Incumbent& incumbent,
                     const NeighborSearchOptions& options, SearchStats& stats,
                     SearchScratch& scratch);

/// Convenience overload with a throwaway scratch (tests, one-off probes).
inline void neighbor_search(LazyGraph& h, VertexId v, Incumbent& incumbent,
                            const NeighborSearchOptions& options,
                            SearchStats& stats) {
  SearchScratch scratch;
  neighbor_search(h, v, incumbent, options, stats, scratch);
}

namespace detail {

/// Extracts the dense subgraph induced by `members` (relabelled ids,
/// sorted ascending; local id = position) into the pooled `out`, using
/// the lazy graph's membership structures rather than the base CSR: this
/// honours construction-time filtering and builds neighborhoods only for
/// the few vertices that reach a detailed search.
///
/// With the members' word form A (scratch.a_words, rebuilt here), each
/// member with a zone row builds its own full row from whole words: the
/// row is ANDed against every occupied word of A (gather_and), and each
/// hit word is compressed to local ids by PEXT against A's word, landing at
/// that word's prefix offset (wordops::compress_or).  The work per member
/// scales with A's occupied words, not with its edges.  A member without
/// a row fills its own row from its view: a CSR view scans its adjacency
/// against the members marked in scratch.marks (local id + 1, through a
/// ScopedMarks), any other view (a hub's hash set) probes every other
/// member.  Without a word form (rows off, or a failed build) each pair
/// i < j is decided once, in member i's view the same way, and mirrored.
/// The result is the same either way: rows built at incumbents up to the
/// lowest member's coreness all hold every member neighbor.  When a
/// concurrent probe raised the incumbent past that mid-extraction, rows
/// may disagree on a pair, and row i decides pair i < j as in the
/// pairwise path.
void induce_from_lazy(LazyGraph& h, const std::vector<VertexId>& members,
                      DenseSubgraph& out, SearchScratch& scratch,
                      SearchTally& tally);

}  // namespace detail

/// Algorithm 7 over a zero-barrier ordered worklist: one probe vertex per
/// degeneracy level (from |C*| upward) enqueued first, then all levels
/// from high to low coreness, drained in parallel with claim-time
/// incumbent re-checks (see the header comment).  Each participant counts
/// into its own SearchTally; the tallies are flushed into `stats` (kernel
/// counts into `options.intersect.counters`) before the call returns or
/// rethrows.
void systematic_search(LazyGraph& h, Incumbent& incumbent,
                       const NeighborSearchOptions& options,
                       SearchStats& stats);

}  // namespace lazymc::mc

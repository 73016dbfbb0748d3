#include "mc/neighbor_search.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "graph/subgraph.hpp"
#include "support/faultinject.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"
#include "support/wordops.hpp"

namespace lazymc::mc {
namespace {

std::uint64_t to_ns(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

/// Calls hit(j) for each member j >= from, j != i, adjacent to member i
/// in its view.  A CSR view scans its adjacency list against the members'
/// marks (local id + 1); any other view is probed once per member.
template <typename Hit>
void view_neighbors(const NeighborhoodView& view,
                    std::span<const VertexId> members, std::size_t i,
                    std::size_t from, ScopedMarks& marks, Hit hit) {
  if (view.is_csr()) {
    const IdMarks& marked = marks.marked();
    const VertexId* map = view.orig_to_new();
    for (VertexId w : view.csr()) {
      const std::uint32_t p = marked.position(map[w]);
      if (p > from && p - 1 != i) hit(p - 1);
    }
    return;
  }
  for (std::size_t j = from; j < members.size(); ++j) {
    if (j != i && view.contains(members[j])) hit(j);
  }
}

/// The pairwise extraction: each pair i < j is decided once, in member i's
/// view, and mirrored.
void probe_pairs(LazyGraph& h, const std::vector<VertexId>& members,
                 DenseSubgraph& out, ScopedMarks& marks) {
  const std::size_t n = members.size();
  EdgeId m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    view_neighbors(h.membership(members[i], n), members, i, i + 1, marks,
                   [&](std::size_t j) {
                     out.adj[i].set(j);
                     out.adj[j].set(i);
                     ++m;
                   });
  }
  out.num_edges = m;
}

/// Rebuilds every row's lower triangle from the upper triangles (pair
/// i < j decided by row i, as in probe_pairs); returns the edge count.
EdgeId mirror_upper_triangle(DenseSubgraph& out) {
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t* row = out.adj[i].data();
    std::fill(row, row + (i >> 6), 0);
    row[i >> 6] &= ~((1ULL << (i & 63)) - 1);
  }
  EdgeId m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = out.adj[i].find_next(i); j < n;
         j = out.adj[i].find_next(j)) {
      out.adj[j].set(i);
      ++m;
    }
  }
  return m;
}

/// Checked builds: rows symmetric, no self-loops, and the popcounts sum
/// to twice the edge count.
[[maybe_unused]] bool rows_consistent(const DenseSubgraph& g) {
  const std::size_t n = g.size();
  std::size_t degree_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (g.adj[i].test(i)) return false;
    degree_sum += g.adj[i].count();
    for (std::size_t j = g.adj[i].find_first(); j < n;
         j = g.adj[i].find_next(j)) {
      if (!g.adj[j].test(i)) return false;
    }
  }
  return degree_sum == 2 * static_cast<std::size_t>(g.num_edges);
}

}  // namespace

namespace detail {

void induce_from_lazy(LazyGraph& h, const std::vector<VertexId>& members,
                      DenseSubgraph& out, SearchScratch& scratch,
                      SearchTally& tally) {
  const std::size_t n = members.size();
  out.reset_pooled(n);
  out.vertices.assign(members.begin(), members.end());
  // Members ascend, so this covers them all; a no-op inside a search,
  // whose marks already cover the ids of coreness >= its bound.
  if (n > 0) scratch.marks.cover(members.front(), h.num_vertices());
  ScopedMarks marks(scratch.marks, members);
  bool words_ready = h.bitset_enabled() && n >= 2;
  if (words_ready) {
    try {
      scratch.a_words.build({members.data(), members.size()}, h.zone_begin());
      scratch.and_words.resize(scratch.a_words.num_entries());
    } catch (const std::bad_alloc&) {
      // Degrade this extraction to per-pair membership probes; the word
      // form is a pure accelerator, never the only copy of the data.
      words_ready = false;
      ++tally.degraded_wordsets;
    }
  }
  if (!words_ready) {
    probe_pairs(h, members, out, marks);
    LAZYMC_ASSERT_EXPENSIVE(rows_consistent(out),
                            "extracted subgraph rows are inconsistent");
    return;
  }

  const VertexId zone_begin = h.zone_begin();
  const std::span<const std::uint32_t> idx = scratch.a_words.indices();
  const std::span<const std::uint64_t> bits = scratch.a_words.bits();
  const std::span<const std::uint32_t> prefix = scratch.a_words.prefix();
  const std::size_t cnt = idx.size();
  std::uint64_t* hit = scratch.and_words.data();
  std::size_t degree_sum = 0;
  std::size_t self_entry = 0;  // the entry of A holding members[i]
  VertexId min_coreness = h.coreness(members[0]);
  for (std::size_t i = 0; i < n; ++i) {
    min_coreness = std::min(min_coreness, h.coreness(members[i]));
    NeighborhoodView view = h.membership(members[i], n);
    DynamicBitset& row = out.adj[i];
    if (!view.has_bitset()) {
      // Every row is filled from its own neighborhood, so a member
      // without a zone row finds all the others, not only those above.
      view_neighbors(view, members, i, 0, marks,
                     [&](std::size_t j) { row.set(j); });
      degree_sum += row.count();
      continue;
    }
    wordops::gather_and(hit, bits.data(), idx.data(), view.bitset().words, cnt);
    // No self-loop, even from a store row that carries its own bit.
    while (prefix[self_entry + 1] <= i) ++self_entry;
    hit[self_entry] &= ~(1ULL << ((members[i] - zone_begin) & 63));
    degree_sum += wordops::compress_or(row.data(), hit, bits.data(),
                                       prefix.data(), cnt);
  }
  // Every row consulted was filtered against at most filter_bound(); the
  // rows can disagree on a pair only once it passed a member's coreness.
  if (h.filter_bound() > min_coreness) {
    out.num_edges = mirror_upper_triangle(out);
  } else {
    out.num_edges = static_cast<EdgeId>(degree_sum / 2);
  }
  LAZYMC_ASSERT_EXPENSIVE(rows_consistent(out),
                          "extracted subgraph rows are inconsistent");
}

}  // namespace detail

namespace {

/// One unit of systematic-search work: the vertices [begin, end) of a
/// single coreness level (so the whole chunk dies together when the
/// incumbent outgrows `coreness` by claim time).
struct LevelChunk {
  VertexId begin = 0;
  VertexId end = 0;
  VertexId coreness = 0;
};

}  // namespace

void neighbor_search(LazyGraph& h, VertexId v, Incumbent& incumbent,
                     const NeighborSearchOptions& options, SearchTally& tally,
                     SearchScratch& scratch) {
  WallTimer timer;
  ++tally.evaluated;

  const auto& order = h.order();
  auto publish = [&](VertexId head, const std::vector<VertexId>& local,
                     const std::vector<VertexId>& local_to_relabelled) {
    // Improving cliques are rare; this staging buffer is the only path
    // that may allocate in steady state, and only while the incumbent is
    // still growing.
    std::vector<VertexId>& orig = scratch.clique;
    orig.clear();
    orig.push_back(order.new_to_orig[head]);
    for (VertexId u : local) {
      orig.push_back(order.new_to_orig[local_to_relabelled[u]]);
    }
    incumbent.offer(orig);
  };

  // ---- filter 1: coreness (Algorithm 8 line 2) -------------------------
  VertexId bound = incumbent.size();
  std::vector<VertexId>& n_set = scratch.n_set;
  h.right_neighbors(v, bound, n_set);
  if (n_set.size() < bound) {
    tally.filter_ns += to_ns(timer.elapsed());
    return;
  }
  ++tally.pass_filter1;

  // ---- filters 2 and 3: induced degree, boolean test (lines 4-13) ------
  // Each round keeps u with |N(u) ∩ N| > |C*| - 2.  Removing a vertex
  // lowers the others' induced degrees, so a later round can remove more;
  // the rounds stop after degree_filter_rounds or at a fixpoint (a round
  // that removes nothing), whichever comes first.  Filter 2 is round 1,
  // filter 3 the last round run.
  //
  // The word form of n_set feeds the bitset kernels whenever a candidate's
  // membership view carries a bitset row (n_set ⊆ zone: every survivor of
  // filter 1 has coreness >= bound >= the bound when rows were enabled).
  // A failed word-form build degrades the round to per-element probes
  // (the word set is an accelerator; membership views answer without it).
  bool zone_kernels = h.bitset_enabled();
  auto build_words = [&](std::span<const VertexId> span)
      -> const SparseWordSet* {
    if (!zone_kernels) return nullptr;
    try {
      scratch.a_words.build(span, h.zone_begin());
      return &scratch.a_words;
    } catch (const std::bad_alloc&) {
      zone_kernels = false;
      ++tally.degraded_wordsets;
      return nullptr;
    }
  };
  // A candidate without a row answers from the CSR against n_set's
  // marks; every candidate has coreness >= bound.
  scratch.marks.cover(h.first_with_coreness(bound), h.num_vertices());
  std::vector<VertexId>& kept = scratch.kept;
  const std::int64_t theta = static_cast<std::int64_t>(bound) - 2;
  const unsigned rounds = std::max(options.degree_filter_rounds, 1u);
  for (unsigned round = 1;; ++round) {
    kept.clear();
    kept.reserve(n_set.size());
    std::span<const VertexId> n_span(n_set);
    const SparseWordSet* a_words = build_words(n_span);
    {
      ScopedMarks marks(scratch.marks, n_span);
      for (VertexId u : n_set) {
        NeighborhoodView u_nbrs = h.membership(u, n_span.size());
        if (options.intersect.size_gt_bool(n_span, u_nbrs, theta, a_words,
                                           &marks)) {
          kept.push_back(u);
        }
      }
    }
    const bool fixpoint = kept.size() == n_set.size();
    std::swap(n_set, kept);
    if (n_set.size() < bound) {
      tally.filter_ns += to_ns(timer.elapsed());
      return;
    }
    if (round == 1) ++tally.pass_filter2;
    if (fixpoint || round == rounds) break;
  }
  ++tally.pass_filter3;

  // ---- algorithmic choice (lines 14-17) ---------------------------------
  // The paper estimates the density from filter 3's exact intersection
  // sizes; the extracted subgraph's exact density costs nothing extra,
  // keeps the phi scale meaningful ([0,1]) and lets every round exit early.
  DenseSubgraph& sub = scratch.sub;
  detail::induce_from_lazy(h, n_set, sub, scratch, tally);
  tally.filter_ns += to_ns(timer.lap());

  // A clique K in G[N] with |K| > |C*| - 1 yields {v} ∪ K with size > |C*|.
  const VertexId sub_bound = bound > 0 ? bound - 1 : 0;

  bool solved = false;
  if (sub.density() > options.density_threshold) {
    std::uint64_t budget =
        options.vc_node_budget_per_vertex == 0
            ? 0
            : options.vc_node_budget_per_vertex * (sub.size() + 1);
    vc::McViaVcResult r = vc::max_clique_via_vc(
        sub, sub_bound, options.control, budget, &scratch.vc,
        &incumbent.size_atomic(), /*live_bound_offset=*/1);
    tally.vc_ns += to_ns(timer.lap());
    tally.vc_nodes += r.nodes;
    tally.vc_lp_calls += r.lp_calls;
    tally.vc_lp_refuted += r.lp_refuted;
    tally.vc_reductions += r.reductions;
    if (r.budget_exhausted) {
      // Misprediction: fall through to the MC solver below.
      ++tally.vc_fallbacks;
    } else {
      solved = true;
      ++tally.solved_vc;
      if (!r.clique.empty()) publish(v, r.clique, sub.vertices);
    }
  }
  if (!solved) {
    BBOptions bb;
    bb.lower_bound = sub_bound;
    bb.control = options.control;
    // Concurrently discovered cliques tighten this solve too; the head
    // vertex contributes 1, so the local bound is the incumbent minus 1.
    bb.live_bound = &incumbent.size_atomic();
    bb.live_bound_offset = 1;
    BBResult r = solve_mc_dense(sub, bb, scratch.mc);
    tally.mc_ns += to_ns(timer.lap());
    tally.mc_nodes += r.nodes;
    ++tally.solved_mc;
    if (!r.clique.empty()) publish(v, r.clique, sub.vertices);
  }
}

namespace {

/// `options` with its policy counting into `tally` instead of the shared
/// atomics.
NeighborSearchOptions counting_into(const NeighborSearchOptions& options,
                                    SearchTally& tally) {
  NeighborSearchOptions counted = options;
  counted.intersect.tally = &tally.kernels;
  return counted;
}

}  // namespace

void neighbor_search(LazyGraph& h, VertexId v, Incumbent& incumbent,
                     const NeighborSearchOptions& options, SearchStats& stats,
                     SearchScratch& scratch) {
  SearchTally tally;
  FlushOnExit flush_guard({&tally, 1}, &stats, options.intersect.counters);
  neighbor_search(h, v, incumbent, counting_into(options, tally), tally,
                  scratch);
}

void systematic_search(LazyGraph& h, Incumbent& incumbent,
                       const NeighborSearchOptions& options,
                       SearchStats& stats) {
  const VertexId n = h.num_vertices();
  if (n == 0) return;

  // Vertices are sorted by ascending coreness, so each coreness level is
  // a contiguous range of relabelled ids and the last vertex has the
  // degeneracy.
  const VertexId degeneracy = h.coreness(n - 1);
  auto level_range = [&](VertexId k) {
    return std::pair<VertexId, VertexId>(h.first_with_coreness(k),
                                         h.first_with_coreness(k + 1));
  };

  // ---- build the global worklist, highest priority first ---------------
  // Probes first (one vertex per level, |C*| .. degeneracy — Algorithm
  // 7's phase A, here just the head of the worklist so every participant
  // starts on one), then whole levels from high to low coreness, each
  // split into chunks small enough to balance.  Level lo-vertices whose
  // level dies later are retired wholesale at claim time.  A level k's
  // range is non-empty exactly when its first vertex has coreness k, so
  // that vertex is the level's probe.
  const std::size_t participants = thread_pool().num_threads();
  const VertexId lo = incumbent.size();
  std::vector<LevelChunk> worklist;
  for (VertexId k = lo; k <= degeneracy; ++k) {
    auto [begin, end] = level_range(k);
    if (begin < end) {
      worklist.push_back({begin, static_cast<VertexId>(begin + 1), k});
    }
  }
  for (VertexId k = degeneracy + 1; k-- > lo;) {
    auto [begin, end] = level_range(k);
    // The level's first vertex is already listed as its probe chunk.
    if (begin < end) ++begin;
    if (begin >= end) continue;
    const std::size_t level_size = end - begin;
    std::size_t chunk = (level_size + 4 * participants - 1) /
                        (4 * participants);
    chunk = std::clamp<std::size_t>(chunk, 1, 64);
    for (VertexId b = begin; b < end; b = static_cast<VertexId>(b + chunk)) {
      VertexId e = static_cast<VertexId>(
          std::min<std::size_t>(end, static_cast<std::size_t>(b) + chunk));
      worklist.push_back({b, e, k});
    }
  }

  // ---- drain: no barriers, incumbent re-checked at claim time ----------
  // Each participant counts into its own SearchTally through its own copy
  // of the options (the policy's tally); the guard flushes them all into
  // the caller's counters once the drain is over, however it ends.
  std::vector<SearchScratch> scratch(participants);
  std::vector<SearchTally> tallies(participants);
  std::vector<NeighborSearchOptions> counted;
  counted.reserve(participants);
  for (std::size_t p = 0; p < participants; ++p) {
    counted.push_back(counting_into(options, tallies[p]));
  }
  FlushOnExit flush_guard(tallies, &stats, options.intersect.counters);
  try {
    drain_in_order(
      thread_pool(), worklist.size(),
      [&](std::size_t p, std::size_t i) {
        LAZYMC_FAULT_THROW("worker.exec");
        const LevelChunk& c = worklist[i];
        SearchTally& tally = tallies[p];
        if (c.coreness < incumbent.size()) {
          ++tally.retired_chunks;
          return;
        }
        for (VertexId v = c.begin; v < c.end; ++v) {
          if (options.control && options.control->cancelled()) break;
          if (h.coreness(v) >= incumbent.size()) {
            neighbor_search(h, v, incumbent, counted[p], tally, scratch[p]);
          }
        }
      },
      [&] { return options.control && options.control->cancelled(); });
  } catch (...) {
    // A worker exception (injected or real) must not strand the rest of
    // the pool: cancelling the shared control makes every cooperative
    // check — and the drain's own stop predicate — wind down, and only
    // then does the error resurface to the caller (the CLI reports it
    // structured).  All per-solve state (scratch arenas, worklist) unwinds
    // here, so the pool and a fresh solve are immediately usable again;
    // the tallies are flushed on the way out, so the counts survive too.
    if (options.control) options.control->cancel();
    throw;
  }
}

}  // namespace lazymc::mc

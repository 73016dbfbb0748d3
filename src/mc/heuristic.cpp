#include "mc/heuristic.hpp"

#include <algorithm>
#include <atomic>

#include "support/aligned.hpp"
#include "support/parallel.hpp"
#include "support/wordops.hpp"

namespace lazymc::mc {

namespace {

/// Candidate sets above this size take sorted greedy steps until they
/// shrink to it; at or below it a seed's candidates get a local bitset
/// adjacency of at most 4096² bits = 2 MiB per participant.
constexpr std::size_t kBitsetCap = 4096;
constexpr std::uint16_t kNoPos = 0xFFFF;

/// One participant's scratch, reused across seeds.
struct GreedyScratch {
  std::vector<std::uint16_t> pos;  // global id -> position in C, or kNoPos
  AlignedWords rows;               // |C| rows, one bit per position in C
  AlignedWords live;               // positions still in C
  std::vector<VertexId> row_deg;   // popcount of each row
  std::vector<VertexId> next;
};

struct SeedClique {
  std::vector<VertexId> clique;  // empty until the seed's growth finished
  std::size_t filtered = 0;      // candidates left by the degree filter
};

bool stopped(const HeuristicOptions& options, std::uint64_t& counter) {
  return options.control && options.control->should_stop(counter);
}

std::size_t count_filtered(const Graph& g, VertexId v, VertexId bound) {
  std::size_t count = 0;
  for (VertexId u : g.neighbors(v)) count += g.degree(u) >= bound ? 1 : 0;
  return count;
}

/// One greedy step on sorted candidate lists (Algorithm 5 lines 7-8): the
/// candidate with the largest degree inside the candidate set, found with
/// early-exit intersections keyed to the running maximum; then the
/// candidates shrink to its neighbours.
void sorted_step(const Graph& g, const IntersectPolicy& intersect,
                 std::vector<VertexId>& candidates,
                 std::vector<VertexId>& next, std::vector<VertexId>& clique) {
  std::int64_t best_deg = -1;
  VertexId best = kInvalidVertex;
  std::span<const VertexId> cand_span(candidates);
  for (VertexId w : candidates) {
    SortedLookup w_nbrs(g.neighbors(w));
    int d = intersect.probe<Query::size_gt_val>(cand_span, w_nbrs, nullptr,
                                                best_deg);
    if (d != kTooSmall && d > best_deg) {
      best_deg = d;
      best = w;
    }
  }
  if (best == kInvalidVertex) {
    // All remaining candidates are mutually non-adjacent; take one.
    best = candidates.front();
  }
  clique.push_back(best);
  next.resize(candidates.size());
  SortedLookup best_nbrs(g.neighbors(best));
  const int kept = probe_scan<Query::gt, Exits::none>(cand_span, best_nbrs,
                                                      next.data(), -1);
  candidates.assign(next.begin(), next.begin() + kept);
}

/// The same greedy steps on a bitset adjacency local to `candidates`
/// (sorted, at most kBitsetCap): row i holds the positions of C that are
/// neighbours of C[i].  A step takes the first live position with the
/// most live neighbours, so ties go to the smallest id as in sorted_step.
void bitset_greedy(const Graph& g, std::span<const VertexId> candidates,
                   GreedyScratch& s, std::vector<VertexId>& clique) {
  const std::size_t m = candidates.size();
  if (m == 0) return;
  const std::size_t words = (m + 63) / 64;
  if (s.pos.empty()) s.pos.assign(g.num_vertices(), kNoPos);
  for (std::size_t i = 0; i < m; ++i) {
    s.pos[candidates[i]] = static_cast<std::uint16_t>(i);
  }
  s.rows.assign(m * words, 0);
  s.row_deg.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    std::uint64_t* row = s.rows.data() + i * words;
    VertexId deg = 0;
    for (VertexId u : g.neighbors(candidates[i])) {
      const std::uint16_t p = s.pos[u];
      if (p == kNoPos) continue;
      row[p >> 6] |= 1ULL << (p & 63);
      ++deg;
    }
    s.row_deg[i] = deg;
  }
  for (VertexId c : candidates) s.pos[c] = kNoPos;

  s.live.assign(words, ~0ULL);
  if (m % 64 != 0) s.live[words - 1] = (1ULL << (m % 64)) - 1;
  std::uint64_t* live = s.live.data();
  // Live positions sit in words [lo, hi); |live| = live_count.
  std::size_t lo = 0, hi = words;
  std::int64_t live_count = static_cast<std::int64_t>(m);
  while (live_count > 0) {
    std::int64_t best_deg = -1;
    std::size_t best = 0;
    // No candidate has more than live_count - 1 live neighbours, and none
    // more than its row degree; neither cut changes the first maximum.
    for (std::size_t w = lo; w < hi && best_deg + 1 < live_count; ++w) {
      for (std::uint64_t bits = live[w]; bits != 0; bits &= bits - 1) {
        const std::size_t i =
            w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
        if (static_cast<std::int64_t>(s.row_deg[i]) <= best_deg) continue;
        const auto d = static_cast<std::int64_t>(wordops::popcount_and(
            s.rows.data() + i * words + lo, live + lo, hi - lo));
        if (d > best_deg) {
          best_deg = d;
          best = i;
          if (best_deg + 1 == live_count) break;
        }
      }
    }
    clique.push_back(candidates[best]);
    wordops::and_assign(live + lo, s.rows.data() + best * words + lo, hi - lo);
    live_count = best_deg;
    while (lo < hi && live[lo] == 0) ++lo;
    while (hi > lo && live[hi - 1] == 0) --hi;
  }
}

/// Grows the clique of `seed` among its neighbours of degree >= `bound`.
/// Returns false, leaving `out.clique` empty, when the control stops it.
bool grow_seed(const Graph& g, const HeuristicOptions& options,
               VertexId seed, VertexId bound, GreedyScratch& s,
               std::uint64_t& stop_counter, SeedClique& out) {
  out.clique.clear();
  std::vector<VertexId> candidates;
  candidates.reserve(g.degree(seed));
  for (VertexId u : g.neighbors(seed)) {
    if (g.degree(u) >= bound) candidates.push_back(u);
  }
  out.filtered = candidates.size();
  std::vector<VertexId> clique{seed};
  while (candidates.size() > kBitsetCap) {
    if (stopped(options, stop_counter)) return false;
    sorted_step(g, options.intersect, candidates, s.next, clique);
  }
  bitset_greedy(g, candidates, s, clique);
  out.clique = std::move(clique);
  return true;
}

}  // namespace

void degree_based_heuristic(const Graph& g, Incumbent& incumbent,
                            const HeuristicOptions& options) {
  const VertexId n = g.num_vertices();
  if (n == 0) return;

  // Top-K vertices by degree via partial sort of ids.
  VertexId k = std::min<VertexId>(options.top_k, n);
  if (k == 0) return;
  std::vector<VertexId> seeds(n);
  for (VertexId v = 0; v < n; ++v) seeds[v] = v;
  std::partial_sort(seeds.begin(), seeds.begin() + k, seeds.end(),
                    [&](VertexId a, VertexId b) {
                      return g.degree(a) > g.degree(b);
                    });
  seeds.resize(k);

  // Seed i's degree filter is the incumbent size after seeds 0..i-1, as
  // in a 1-thread run in seed order.  Seed 0 runs alone; the rest run in
  // parallel under its bound; a walk in seed order then regrows each seed
  // whose filter keeps fewer candidates under its 1-thread bound (bounds
  // only grow, so an equal count means an equal candidate set).  The
  // cliques, and the incumbent they leave, match at every thread count.
  ThreadPool& pool = thread_pool();
  std::vector<GreedyScratch> scratch(pool.num_threads());
  std::vector<SeedClique> runs(k);
  const VertexId entry = incumbent.size();
  std::uint64_t stop_counter = 0;
  if (stopped(options, stop_counter) ||
      !grow_seed(g, options, seeds[0], entry, scratch[0], stop_counter,
                 runs[0])) {
    return;
  }
  VertexId bound =
      std::max(entry, static_cast<VertexId>(runs[0].clique.size()));

  std::atomic<std::size_t> next_seed{1};
  pool.parallel_invoke_all([&](std::size_t t) {
    std::uint64_t counter = 0;
    for (std::size_t i = next_seed++; i < k; i = next_seed++) {
      if (stopped(options, counter) ||
          !grow_seed(g, options, seeds[i], bound, scratch[t], counter,
                     runs[i])) {
        return;
      }
    }
  });

  for (std::size_t i = 1; i < k; ++i) {
    if (stopped(options, stop_counter)) break;
    SeedClique& run = runs[i];
    if (count_filtered(g, seeds[i], bound) != run.filtered &&
        !grow_seed(g, options, seeds[i], bound, scratch[0], stop_counter,
                   run)) {
      break;
    }
    bound = std::max(bound, static_cast<VertexId>(run.clique.size()));
  }
  for (const SeedClique& run : runs) {
    if (!run.clique.empty()) incumbent.offer(run.clique);
  }
}

namespace {

/// Algorithm 6 from one seed: grow greedily through the highest-numbered
/// candidate, abandoning once the clique cannot beat the incumbent.
void grow_from_seed(LazyGraph& h, VertexId v, Incumbent& incumbent,
                    const IntersectPolicy& policy) {
  std::vector<VertexId> candidates;
  h.right_neighbors(v, h.filter_bound(), candidates);
  std::vector<VertexId> clique{v};
  std::vector<VertexId> next(candidates.size());

  while (!candidates.empty()) {
    // Highest-numbered candidate has the highest coreness (Algorithm 6
    // line 7); candidate lists are sorted ascending.
    VertexId u = candidates.back();
    clique.push_back(u);
    candidates.pop_back();
    if (candidates.empty()) break;
    // N ← N ∩ N(u) via intersect-gt, θ = |C*| - |C| (Algorithm 6
    // line 8): if the result cannot keep C competitive, abandon.
    std::int64_t theta =
        static_cast<std::int64_t>(incumbent.size()) -
        static_cast<std::int64_t>(clique.size());
    NeighborhoodView u_nbrs = h.membership(u);
    int kept = policy.gt(std::span<const VertexId>(candidates), u_nbrs,
                         next.data(), theta);
    if (kept == kTooSmall) {
      candidates.clear();
      break;
    }
    candidates.assign(next.begin(), next.begin() + kept);
  }
  // Convert relabelled ids to original before publishing.
  std::vector<VertexId> orig;
  orig.reserve(clique.size());
  for (VertexId u : clique) orig.push_back(h.order().new_to_orig[u]);
  incumbent.offer(orig);
}

}  // namespace

void coreness_based_heuristic(LazyGraph& h, Incumbent& incumbent,
                              const HeuristicOptions& options) {
  const VertexId n = h.num_vertices();
  if (n == 0) return;

  // Vertices are sorted by ascending coreness, so the first vertex of each
  // coreness level is found by scanning level boundaries once.
  std::vector<VertexId> level_first;  // seed vertex per distinct level
  {
    VertexId prev = kInvalidVertex;
    for (VertexId v = 0; v < n; ++v) {
      VertexId c = h.coreness(v);
      if (c != prev) {
        level_first.push_back(v);
        prev = c;
      }
    }
  }
  // Process high coreness levels first (they host the large cliques).
  std::reverse(level_first.begin(), level_first.end());

  // Levels are claimed from a sharded range as parallel_for would, one at
  // a time.  Each participant intersects through its own copy of the
  // policy, counting into its own tally; the guard flushes the tallies
  // into the policy's counters once the phase is over.
  ThreadPool& pool = thread_pool();
  const std::size_t participants = pool.num_threads();
  std::vector<SearchTally> tallies(participants);
  FlushOnExit flush_guard(tallies, nullptr, options.intersect.counters);
  lazymc::detail::ShardedRange range(0, level_first.size(), participants, 1);
  pool.parallel_invoke_all([&](std::size_t t) {
    IntersectPolicy policy = options.intersect;
    policy.tally = &tallies[t].kernels;
    std::size_t lo = 0, hi = 0;
    while (range.claim(t, lo, hi)) {
      for (std::size_t i = lo; i < hi; ++i) {
        std::uint64_t stop_counter = 0;
        if (options.control && options.control->should_stop(stop_counter)) {
          continue;
        }
        grow_from_seed(h, level_first[i], incumbent, policy);
      }
    }
  });
}

}  // namespace lazymc::mc

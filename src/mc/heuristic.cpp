#include "mc/heuristic.hpp"

#include <algorithm>
#include <atomic>

#include "support/aligned.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/wordops.hpp"

namespace lazymc::mc {

namespace {

/// Candidate sets above this size take sorted greedy steps until they
/// shrink to it; at or below it a seed's candidates get a local bitset
/// adjacency of at most 4096² bits = 2 MiB per participant.  The shared
/// union matrix has the same cap, which keeps positions in uint16.
constexpr std::size_t kBitsetCap = 4096;
constexpr std::uint16_t kNoPos = 0xFFFF;

/// One participant's scratch, reused across seeds.
struct GreedyScratch {
  std::vector<std::uint16_t> pos;  // global id -> position in C, or kNoPos
  AlignedWords rows;               // |C| rows, one bit per position in C
  AlignedWords live;               // positions still in C
  std::vector<VertexId> row_deg;   // popcount of each row
  std::vector<VertexId> next;
  // C's occupied words of the union: index, the bits of C, and the
  // number of C's members in the words before (compress_or's operands),
  // then one union row's hits in them.
  std::vector<std::uint32_t> word_idx;
  std::vector<std::uint64_t> word_mask;
  std::vector<std::uint32_t> word_offset;
  std::vector<std::uint64_t> hit;
};

/// U, the sorted union of seeds 1..K-1's candidate sets under seed 0's
/// bound, with one bitset row per member over U's positions.
struct UnionRows {
  std::vector<VertexId> members;       // ascending id
  const std::uint16_t* pos = nullptr;  // global id -> position in U
  std::size_t words = 0;               // words per row
  AlignedWords rows;

  const std::uint64_t* row(std::size_t i) const {
    return rows.data() + i * words;
  }
};

struct SeedClique {
  std::vector<VertexId> clique;  // empty until the seed's growth finished
  std::size_t filtered = 0;      // candidates left by the degree filter
  std::size_t csr_rows = 0;      // rows built by CSR scans, all growths
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
void sorted_step(const Graph& g, const IntersectPolicy& policy,
                 std::vector<VertexId>& candidates,
                 std::vector<VertexId>& next, std::vector<VertexId>& clique) {
  std::int64_t best_deg = -1;
  VertexId best = kInvalidVertex;
  std::span<const VertexId> cand_span(candidates);
  for (VertexId w : candidates) {
    int d = policy.gallop<Query::size_gt_val>(cand_span, g.neighbors(w),
                                              nullptr, best_deg);
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
  const int kept = policy.gallop<Query::gt>(cand_span, g.neighbors(best),
                                            next.data(), -1);
  candidates.assign(next.begin(), next.begin() + kept);
}

/// Builds the local adjacency of `candidates` (sorted, at most
/// kBitsetCap) by scanning each candidate's CSR row: row i holds the
/// positions of C that are neighbours of C[i].
void build_csr_rows(const Graph& g, std::span<const VertexId> candidates,
                    GreedyScratch& s) {
  const std::size_t m = candidates.size();
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
}

/// The same local adjacency cut out of the union's rows: C marked in U's
/// words is the mask, each member's union row ANDed with it is
/// compressed (PEXT) to C's positions.  Requires C ⊆ U.
void cut_rows(const UnionRows& u, std::span<const VertexId> candidates,
              GreedyScratch& s) {
  const std::size_t m = candidates.size();
  const std::size_t words = (m + 63) / 64;
  s.word_idx.clear();
  s.word_mask.clear();
  s.word_offset.clear();
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint16_t p = u.pos[candidates[i]];
    LAZYMC_ASSERT(p != kNoPos, "a shared-path candidate is outside the union");
    const std::uint32_t w = p >> 6;
    if (s.word_idx.empty() || s.word_idx.back() != w) {
      s.word_idx.push_back(w);
      s.word_mask.push_back(0);
      s.word_offset.push_back(static_cast<std::uint32_t>(i));
    }
    s.word_mask.back() |= 1ULL << (p & 63);
  }
  const std::size_t n = s.word_idx.size();
  s.hit.resize(n);
  s.rows.assign(m * words, 0);
  s.row_deg.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    wordops::gather_and(s.hit.data(), s.word_mask.data(), s.word_idx.data(),
                        u.row(u.pos[candidates[i]]), n);
    s.row_deg[i] = static_cast<VertexId>(
        wordops::compress_or(s.rows.data() + i * words, s.hit.data(),
                             s.word_mask.data(), s.word_offset.data(), n));
  }
}

/// The greedy steps on the local adjacency in `s` of `candidates`.  A
/// step takes the first live position with the most live neighbours, so
/// ties go to the smallest id as in sorted_step.
void bitset_greedy(std::span<const VertexId> candidates, GreedyScratch& s,
                   std::vector<VertexId>& clique) {
  const std::size_t m = candidates.size();
  const std::size_t words = (m + 63) / 64;
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

/// Grows the clique of `seed` among its neighbours of degree >= `bound`,
/// on rows cut from `shared` when given (every candidate must be in it),
/// else on rows built from the CSR.  Returns false, leaving `out.clique`
/// empty, when the control stops it.
bool grow_seed(const Graph& g, const HeuristicOptions& options,
               VertexId seed, VertexId bound, const UnionRows* shared,
               GreedyScratch& s, std::uint64_t& stop_counter,
               SeedClique& out) {
  out.clique.clear();
  std::vector<VertexId> candidates;
  candidates.reserve(g.degree(seed));
  for (VertexId u : g.neighbors(seed)) {
    if (g.degree(u) >= bound) candidates.push_back(u);
  }
  out.filtered = candidates.size();
  std::vector<VertexId> clique{seed};
  if (candidates.size() > kBitsetCap) {
    // The hub prefix counts its probes in one tally per seed, added to
    // the caller's counters once.
    KernelTally tally;
    IntersectPolicy policy = options.intersect;
    policy.tally = &tally;
    while (candidates.size() > kBitsetCap && !stopped(options, stop_counter)) {
      sorted_step(g, policy, candidates, s.next, clique);
    }
    flush(tally, options.intersect.counters);
    if (candidates.size() > kBitsetCap) return false;  // stopped
  }
  if (!candidates.empty()) {
    if (shared) {
      cut_rows(*shared, candidates, s);
    } else {
      build_csr_rows(g, candidates, s);
      out.csr_rows += candidates.size();
    }
    bitset_greedy(candidates, s, clique);
  }
  out.clique = std::move(clique);
  return true;
}

/// Collects U over `seeds` under `bound` into `u`, positions in `pos`
/// (all kNoPos on entry).  Returns false, leaving `pos` all kNoPos, when
/// |U| exceeds kBitsetCap, or when U's rows would cost more than the
/// per-seed rows they replace.  Counted in words and CSR entries, U
/// costs its matrix, one CSR scan per member and, per candidate of each
/// seed, at most one row of U read by the cut; per-seed rows cost one CSR
/// scan per candidate of each seed.  Candidate sets that barely overlap,
/// or whose members have few neighbours, stay per seed.
bool collect_union(const Graph& g, std::span<const VertexId> seeds,
                   VertexId bound, std::vector<std::uint16_t>& pos,
                   UnionRows& u) {
  if (pos.empty()) pos.assign(g.num_vertices(), kNoPos);
  auto give_up = [&] {
    for (VertexId v : u.members) pos[v] = kNoPos;
    u.members.clear();
    return false;
  };
  constexpr std::uint16_t kSeen = 0;
  std::size_t candidates = 0, seed_scans = 0, union_scans = 0;
  for (VertexId seed : seeds) {
    for (VertexId v : g.neighbors(seed)) {
      if (g.degree(v) < bound) continue;
      ++candidates;
      seed_scans += g.degree(v);
      if (pos[v] != kNoPos) continue;
      if (u.members.size() == kBitsetCap) return give_up();
      pos[v] = kSeen;
      u.members.push_back(v);
      union_scans += g.degree(v);
    }
  }
  const std::size_t m = u.members.size();
  if ((m + candidates) * ((m + 63) / 64) + union_scans >= seed_scans) {
    return give_up();
  }
  std::sort(u.members.begin(), u.members.end());
  for (std::size_t i = 0; i < m; ++i) {
    pos[u.members[i]] = static_cast<std::uint16_t>(i);
  }
  u.pos = pos.data();
  return true;
}

/// Builds U's rows, one CSR scan per member, in parallel.  Returns false
/// when the control stops it (the rows are then incomplete).
bool build_union_rows(const Graph& g, const HeuristicOptions& options,
                      UnionRows& u) {
  const std::size_t m = u.members.size();
  u.words = (m + 63) / 64;
  u.rows.assign(m * u.words, 0);
  constexpr std::size_t kBlock = 64;  // rows per control poll
  std::atomic<bool> halted{false};
  parallel_for(0, (m + kBlock - 1) / kBlock, [&](std::size_t b) {
    std::uint64_t counter = 0;
    if (halted.load(std::memory_order_relaxed) || stopped(options, counter)) {
      halted.store(true, std::memory_order_relaxed);
      return;
    }
    for (std::size_t i = b * kBlock; i < std::min(m, (b + 1) * kBlock); ++i) {
      std::uint64_t* row = u.rows.data() + i * u.words;
      for (VertexId v : g.neighbors(u.members[i])) {
        const std::uint16_t p = u.pos[v];
        if (p != kNoPos) row[p >> 6] |= 1ULL << (p & 63);
      }
    }
  });
  return !halted.load(std::memory_order_relaxed);
}

/// Grows every seed into `runs` (see degree_based_heuristic).  Returns
/// early, leaving the runs not yet grown empty, when the control stops it.
void grow_seeds(const Graph& g, const HeuristicOptions& options,
                std::span<const VertexId> seeds, VertexId entry,
                std::vector<SeedClique>& runs, DegreeHeuristicStats& stats) {
  ThreadPool& pool = thread_pool();
  std::vector<GreedyScratch> scratch(pool.num_threads());
  std::uint64_t stop_counter = 0;
  if (stopped(options, stop_counter) ||
      !grow_seed(g, options, seeds[0], entry, nullptr, scratch[0],
                 stop_counter, runs[0])) {
    return;
  }
  VertexId bound =
      std::max(entry, static_cast<VertexId>(runs[0].clique.size()));

  // Every later bound is >= this one, so every later candidate set lies
  // in U; where U is over the cap or does not pay, each seed builds its
  // own rows instead.
  UnionRows u;
  const UnionRows* shared = nullptr;
  if (collect_union(g, seeds.subspan(1), bound, scratch[0].pos, u)) {
    if (!build_union_rows(g, options, u)) return;
    shared = &u;
    stats.union_size = u.members.size();
    stats.csr_rows += u.members.size();
  }

  if (seeds.size() > 1) {
    drain_in_order(
        pool, seeds.size() - 1,
        [&](std::size_t t, std::size_t i) {
          std::uint64_t counter = 0;
          grow_seed(g, options, seeds[i + 1], bound, shared, scratch[t],
                    counter, runs[i + 1]);
        },
        [&] {
          std::uint64_t counter = 0;
          return stopped(options, counter);
        });
  }

  for (std::size_t i = 1; i < seeds.size(); ++i) {
    if (stopped(options, stop_counter)) return;
    SeedClique& run = runs[i];
    if (count_filtered(g, seeds[i], bound) != run.filtered) {
      ++stats.regrown;
      if (!grow_seed(g, options, seeds[i], bound, shared, scratch[0],
                     stop_counter, run)) {
        return;
      }
    }
    bound = std::max(bound, static_cast<VertexId>(run.clique.size()));
  }
}

}  // namespace

DegreeHeuristicStats degree_based_heuristic(const Graph& g,
                                            Incumbent& incumbent,
                                            const HeuristicOptions& options) {
  DegreeHeuristicStats stats;
  const VertexId n = g.num_vertices();
  // Top-K vertices by degree via partial sort of ids.
  const VertexId k = std::min<VertexId>(options.top_k, n);
  if (k == 0) return stats;
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
  std::vector<SeedClique> runs(k);
  grow_seeds(g, options, seeds, incumbent.size(), runs, stats);
  for (const SeedClique& run : runs) {
    stats.csr_rows += run.csr_rows;
    if (!run.clique.empty()) incumbent.offer(run.clique);
  }
  return stats;
}

namespace {

/// Algorithm 6 from one seed: grow greedily through the highest-numbered
/// candidate, abandoning once the clique cannot beat the incumbent.
void grow_from_seed(LazyGraph& h, VertexId v, Incumbent& incumbent,
                    const IntersectPolicy& policy, IdMarks& marks) {
  std::vector<VertexId> candidates;
  const VertexId bound = h.filter_bound();
  h.right_neighbors(v, bound, candidates);
  // Row-less candidates u answer from the CSR: N(u) marked, A filtered.
  marks.cover(h.first_with_coreness(bound), h.num_vertices());
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
    NeighborhoodView u_nbrs = h.membership(u, candidates.size());
    const int kept = [&] {
      ScopedMarks a_marks(marks, candidates);
      return policy.gt(std::span<const VertexId>(candidates), u_nbrs,
                       next.data(), theta, nullptr, &a_marks);
    }();
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

  // Vertices are sorted by ascending coreness, so each coreness level is
  // an id range; its first vertex seeds it.  Walking down from the top
  // lists high coreness levels first (they host the large cliques).  A
  // vertex of coreness c lies in no clique larger than c + 1, so the walk
  // stops at the first level below the incumbent's size.
  const VertexId bound = incumbent.size();
  std::vector<VertexId> level_first;
  for (VertexId end = n; end > 0 && h.coreness(end - 1) >= bound;) {
    end = h.first_with_coreness(h.coreness(end - 1));
    level_first.push_back(end);
  }

  // Levels are claimed one at a time in that order.  Each participant
  // intersects through its own copy of the policy, counting into its own
  // tally, with its own CSR marks; the guard flushes the tallies into the
  // policy's counters once the phase is over.
  ThreadPool& pool = thread_pool();
  std::vector<IdMarks> marks(pool.num_threads());
  std::vector<SearchTally> tallies(pool.num_threads());
  FlushOnExit flush_guard(tallies, nullptr, options.intersect.counters);
  drain_in_order(
      pool, level_first.size(),
      [&](std::size_t t, std::size_t i) {
        IntersectPolicy policy = options.intersect;
        policy.tally = &tallies[t].kernels;
        grow_from_seed(h, level_first[i], incumbent, policy, marks[t]);
      },
      [&] {
        std::uint64_t stop_counter = 0;
        return options.control && options.control->should_stop(stop_counter);
      });
}

}  // namespace lazymc::mc

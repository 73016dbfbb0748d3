#include "vc/kvc.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"

namespace lazymc::vc {
namespace {

constexpr VertexId kUnmatched = std::numeric_limits<VertexId>::max();

class Searcher {
 public:
  Searcher(const DenseSubgraph& g, const KvcOptions& opt, KvcScratch& scratch)
      : g_(g), opt_(opt), scratch_(scratch) {}

  KvcResult run(std::span<const VertexId> degrees, std::int64_t k) {
    const std::size_t n = g_.size();
    LAZYMC_ASSERT(degrees.size() == n, "k-VC root degrees cover the graph");
    // Every branch removes at least one vertex, so depth <= n + 1;
    // pre-sizing keeps the per-depth branch bitsets stable and reused.
    if (scratch_.frames.size() < n + 2) scratch_.frames.resize(n + 2);
    // The worklist holds at most n seeds plus two pushes per vertex (its
    // degree reaching 2 and 1), so it never regrows.
    scratch_.worklist.reserve(3 * n);
    // Root degrees come from the caller; every branch copies and
    // decrements from here.
    std::vector<VertexId>& deg = scratch_.root_deg;
    deg.assign(degrees.begin(), degrees.end());
    DynamicBitset& alive = scratch_.root;
    alive.reinit(n);
    for (std::size_t v = 0; v < n; ++v) {
      LAZYMC_ASSERT_EXPENSIVE(deg[v] == g_.adj[v].count(),
                              "k-VC root degree is the row's popcount");
      if (deg[v] != 0) alive.set(v);  // degree-0 never matters
    }
    KvcResult out;
    std::vector<VertexId>& cover = scratch_.cover;
    cover.clear();
    out.feasible = search(alive, deg, k, cover, 0);
    if (timed_out_ || budget_exhausted_) out.feasible = false;
    if (out.feasible) out.cover.assign(cover.begin(), cover.end());
    out.nodes = nodes_;
    out.lp_calls = lp_calls_;
    out.lp_refuted = lp_refuted_;
    out.reductions = reductions_;
    out.timed_out = timed_out_;
    out.budget_exhausted = budget_exhausted_;
    return out;
  }

 private:
  /// Removes v from alive and decrements its alive neighbors' degrees.
  /// A neighbor left with degree 2 or less joins the worklist, and one
  /// left isolated leaves alive at once.  The row & alive AND runs word
  /// by word into a pooled bitset; only the per-neighbor decrement stays
  /// bit-serial.
  void remove_vertex(DynamicBitset& alive, std::vector<VertexId>& deg,
                     std::size_t v) const {
    alive.reset(v);
    DynamicBitset& both = scratch_.alive_row;
    both.assign_and(g_.adj[v], alive);
    both.for_each([&](std::size_t u) {
      if (--deg[u] == 0) {
        alive.reset(u);
      } else if (deg[u] <= 2) {
        scratch_.worklist.push_back(static_cast<VertexId>(u));
      }
    });
    deg[v] = 0;
  }

  /// Writes v's first `want` alive neighbors, ascending, to `out` and
  /// returns how many it found (fewer when v has fewer); reads row & alive
  /// a word at a time.
  std::size_t alive_neighbors(const DynamicBitset& alive, std::size_t v,
                              std::size_t* out, std::size_t want) const {
    const DynamicBitset& row = g_.adj[v];
    std::size_t found = 0;
    for (std::size_t w = 0; w < row.num_words() && found < want; ++w) {
      for (std::uint64_t bits = row.word(w) & alive.word(w);
           bits != 0 && found < want; bits &= bits - 1) {
        out[found++] = w * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
      }
    }
    return found;
  }

  /// Lower bound on the vertex cover of the alive subgraph, doubled: the
  /// size of a matching M of its bipartite double cover, in which edge uv
  /// joins left u to right v and left v to right u.  A maximum M is twice
  /// the half-integral LP optimum, so |M| > limit = 2k refutes k.
  ///
  /// M starts from a greedy maximal matching with each edge used in both
  /// directions, so a maximal matching of more than k edges exits before
  /// any augmenting; M then grows by phases of augmenting paths.  A phase
  /// resets the unvisited right copies once and tries every free left
  /// copy; a right copy visited by a failed path stays visited for the
  /// phase.  A phase that augments nothing leaves M maximum.  The result
  /// exceeds `limit` exactly when the maximum |M| does; it stops as soon
  /// as that is known.
  std::size_t lp_matching(const DynamicBitset& alive, std::size_t limit) {
    // Each left copy matches at most once: too few vertices cannot refute.
    if (alive.count() <= limit) return 0;
    const std::size_t words = alive.num_words();
    std::vector<VertexId>& right = scratch_.match_right;  // left partner
    right.assign(g_.size(), kUnmatched);
    DynamicBitset& free = scratch_.matching_free;  // unmatched left copies
    free = alive;
    std::size_t matched = 0;
    for (std::size_t v = free.find_first(); v < free.size();
         v = free.find_next(v)) {
      // v is still free here (find_next skips vertices we reset).
      const DynamicBitset& row = g_.adj[v];
      std::uint64_t cand = 0;
      std::uint64_t above_v = ~0ULL << ((v + 1) & 63);
      std::size_t w = (v + 1) >> 6;
      for (; w < words; ++w, above_v = ~0ULL) {
        cand = row.word(w) & free.word(w) & above_v;
        if (cand != 0) break;
      }
      if (cand == 0) continue;
      const std::size_t u =
          w * 64 + static_cast<unsigned>(__builtin_ctzll(cand));
      free.reset(v);
      free.reset(u);
      right[v] = static_cast<VertexId>(u);
      right[u] = static_cast<VertexId>(v);
      matched += 2;
    }
    if (matched > limit) return matched;

    DynamicBitset& unvisited = scratch_.unvisited;
    std::vector<KvcScratch::PathStep>& path = scratch_.path;
    for (bool grew = true; grew;) {
      grew = false;
      unvisited = alive;
      for (std::size_t s = free.find_first(); s < free.size();
           s = free.find_next(s)) {
        // Iterative DFS along alternating paths from left copy s.  Each
        // step resumes its row scan at `word`; candidates are the row's
        // unvisited right copies, a word at a time.
        path.clear();
        path.push_back({static_cast<VertexId>(s), 0, 0});
        while (!path.empty()) {
          KvcScratch::PathStep& step = path.back();
          const DynamicBitset& row = g_.adj[step.left];
          std::uint64_t cand = 0;
          for (; step.word < words; ++step.word) {
            cand = row.word(step.word) & unvisited.word(step.word);
            if (cand != 0) break;
          }
          if (cand == 0) {
            path.pop_back();  // dead end: its right copies stay visited
            continue;
          }
          const std::size_t r =
              step.word * 64 + static_cast<unsigned>(__builtin_ctzll(cand));
          unvisited.reset(r);
          step.right = static_cast<VertexId>(r);
          if (right[r] != kUnmatched) {
            path.push_back({right[r], 0, 0});
            continue;
          }
          // Free right copy: flip every edge along the path.
          for (const KvcScratch::PathStep& e : path) right[e.right] = e.left;
          free.reset(s);
          grew = true;
          if (++matched > limit) return matched;
          break;
        }
      }
    }
    return matched;
  }

  /// Minimum VC of a path/cycle component starting the walk at `start`;
  /// appends chosen vertices to `cover` and clears the component from
  /// `alive`.  Assumes all alive degrees <= 2.
  void solve_degree2_component(DynamicBitset& alive, std::size_t start,
                               std::vector<VertexId>& cover) {
    const std::size_t none = alive.size();
    // The alive neighbor of `a` other than `from` (none if there is none).
    const auto step = [&](std::size_t a, std::size_t from) {
      std::size_t two[2];
      const std::size_t found = alive_neighbors(alive, a, two, 2);
      for (std::size_t i = 0; i < found; ++i) {
        if (two[i] != from) return two[i];
      }
      return none;
    };
    // Find an endpoint if this is a path (a vertex of degree <= 1).
    std::size_t cur = start;
    std::size_t prev = none;
    for (;;) {
      const std::size_t next = step(cur, prev);
      if (next == none) break;  // cur is an endpoint
      prev = cur;
      cur = next;
      if (cur == start) break;  // walked a full cycle
    }
    bool is_cycle = (cur == start && prev != none);

    // Walk from the endpoint (or break the cycle at `start` by taking it).
    std::size_t walk = cur;
    if (is_cycle) {
      cover.push_back(static_cast<VertexId>(start));
      alive.reset(start);
      // The remainder is a path; find one of the two loose ends.
      walk = step(start, none);
      if (walk == none) return;  // start was a 2-cycle? (impossible)
    }
    // Greedy path cover: walk the path; when the edge (a, b) is uncovered,
    // put b (the far endpoint) in the cover.  Optimal for paths.
    std::size_t a = walk;
    std::size_t before = none;
    bool a_covered = false;
    while (true) {
      const std::size_t b = step(a, before);
      alive.reset(a);
      if (b == none) break;  // end of path
      if (!a_covered) {
        cover.push_back(static_cast<VertexId>(b));
        a_covered = true;  // b covers edge (a,b); b itself is covered
      } else {
        a_covered = false;
      }
      before = a;
      a = b;
      // a_covered now says whether vertex a is in the cover.
    }
  }

  /// `alive` and its paired degree array `deg` belong to this call and are
  /// mutated freely (kernelisation); the caller keeps its own copies for
  /// building its second branch.
  bool search(DynamicBitset& alive, std::vector<VertexId>& deg, std::int64_t k,
              std::vector<VertexId>& cover, std::size_t depth) {
    ++nodes_;
    if (opt_.control && opt_.control->should_stop(stop_counter_)) {
      timed_out_ = true;
      return false;
    }
    if (opt_.max_nodes != 0 && nodes_ > opt_.max_nodes) {
      budget_exhausted_ = true;
      return false;
    }
    if (k < 0) return false;
    const std::size_t checkpoint = cover.size();
    const auto fail = [&] {
      cover.resize(checkpoint);
      return false;
    };

    // ---- kernelisation: every reduction, one worklist pass -------------
    // One scan seeds the worklist with the vertices of degree <= 2 or > k
    // and sums the degrees; from then on edges2 is kept by subtraction
    // and remove_vertex pushes each neighbor whose degree falls to 2.
    // Every vertex of degree > k is in every k-cover, so the scan (and
    // the node) stops at the (k+1)-th: most refuted nodes end there.
    std::vector<VertexId>& work = scratch_.worklist;
    work.clear();
    std::size_t edges2 = 0;  // 2x edge count among alive
    std::size_t max_deg = 0, max_v = alive.size();
    std::size_t above_k = 0;
    for (std::size_t v = alive.find_first(); v < alive.size();
         v = alive.find_next(v)) {
      const std::size_t d = deg[v];
      edges2 += d;
      if (d > static_cast<std::size_t>(k)) {
        if (++above_k > static_cast<std::size_t>(k)) return fail();
        work.push_back(static_cast<VertexId>(v));
      } else if (d <= 2) {
        work.push_back(static_cast<VertexId>(v));
      }
      if (d > max_deg) {
        max_deg = d;
        max_v = v;
      }
    }
    const auto take = [&](std::size_t v) {
      cover.push_back(static_cast<VertexId>(v));
      edges2 -= 2 * static_cast<std::size_t>(deg[v]);
      remove_vertex(alive, deg, v);
    };
    for (;;) {
      bool reduced = false;
      for (std::size_t head = 0; head < work.size(); ++head) {
        const std::size_t v = work[head];
        if (!alive.test(v)) continue;
        const std::size_t d = deg[v];
        if (d > static_cast<std::size_t>(k)) {
          // Buss rule: v must be in every k-cover.
          take(v);
          k -= 1;
        } else if (d == 1) {
          // Take the sole neighbor; v is left isolated.
          std::size_t u = 0;
          alive_neighbors(alive, v, &u, 1);
          take(u);
          k -= 1;
        } else if (d == 2) {
          // Triangle rule (merge-free degree-2 case): if the two
          // neighbors are adjacent, both are in some minimum cover.
          std::size_t two[2];
          alive_neighbors(alive, v, two, 2);
          if (!g_.adj[two[0]].test(two[1])) continue;
          take(two[0]);
          take(two[1]);
          k -= 2;
        } else {
          continue;
        }
        ++reductions_;
        reduced = true;
        if (k < 0) return fail();
      }
      work.clear();
      if (!reduced) break;  // the last scan's max_deg still holds
      // Read max_deg afresh.  A smaller k can make the Buss rule fire on
      // vertices the last scan passed over; they restart the worklist.
      max_deg = 0;
      max_v = alive.size();
      above_k = 0;
      for (std::size_t v = alive.find_first(); v < alive.size();
           v = alive.find_next(v)) {
        const std::size_t d = deg[v];
        if (d > static_cast<std::size_t>(k)) {
          if (++above_k > static_cast<std::size_t>(k)) return fail();
          work.push_back(static_cast<VertexId>(v));
        }
        if (d > max_deg) {
          max_deg = d;
          max_v = v;
        }
      }
      if (work.empty()) break;
    }

    if (edges2 == 0) return true;  // everything covered
    // Counting bound: each cover vertex covers at most max_deg edges.
    if (edges2 / 2 > static_cast<std::size_t>(k) * max_deg) return fail();
    // LP bound: the cover needs at least half a double-cover matching.
    // Decisive for the "prove no better clique exists" probes of
    // MC-via-VC, where k is large but the complement still has a big
    // (fractional) matching.
    const std::size_t twice_k = 2 * static_cast<std::size_t>(k);
    ++lp_calls_;
    if (lp_matching(alive, twice_k) > twice_k) {
      ++lp_refuted_;
      return fail();
    }

    if (max_deg <= 2) {
      // Paths and cycles: polynomial.
      const std::size_t needed_before = cover.size();
      DynamicBitset& scratch = scratch_.deg2;
      scratch = alive;
      while (scratch.any()) {
        solve_degree2_component(scratch, scratch.find_first(), cover);
      }
      const std::size_t used = cover.size() - needed_before;
      if (used <= static_cast<std::size_t>(k)) return true;
      return fail();
    }

    // ---- branch on the max-degree vertex ------------------------------
    // Both branches borrow this depth's pooled bitset + degree array:
    // branch 1's recursion may mutate them, so branch 2 re-copies from
    // `alive`/`deg` (which callees never touch) before reusing them.
    DynamicBitset& next = scratch_.frames[depth].branch;
    std::vector<VertexId>& next_deg = scratch_.frames[depth].deg;
    // Branch 1: max_v in the cover.
    next = alive;
    next_deg = deg;
    remove_vertex(next, next_deg, max_v);
    cover.push_back(static_cast<VertexId>(max_v));
    if (search(next, next_deg, k - 1, cover, depth + 1)) return true;
    cover.pop_back();
    if (timed_out_ || budget_exhausted_) return fail();
    // Branch 2: its max_deg alive neighbors in the cover; max_v leaves
    // `next` with the last of them (remove_vertex drops the isolated).
    next = alive;
    next_deg = deg;
    const DynamicBitset& row = g_.adj[max_v];
    for (std::size_t w = 0; w < row.num_words(); ++w) {
      for (std::uint64_t bits = row.word(w) & alive.word(w); bits != 0;
           bits &= bits - 1) {
        const std::size_t u =
            w * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
        cover.push_back(static_cast<VertexId>(u));
        remove_vertex(next, next_deg, u);
      }
    }
    if (search(next, next_deg, k - static_cast<std::int64_t>(max_deg), cover,
               depth + 1)) {
      return true;
    }
    return fail();
  }

  const DenseSubgraph& g_;
  const KvcOptions& opt_;
  KvcScratch& scratch_;
  std::uint64_t nodes_ = 0;
  std::uint64_t lp_calls_ = 0;
  std::uint64_t lp_refuted_ = 0;
  std::uint64_t reductions_ = 0;
  std::uint64_t stop_counter_ = 0;
  bool timed_out_ = false;
  bool budget_exhausted_ = false;
};

}  // namespace

KvcResult solve_kvc(const DenseSubgraph& g, std::span<const VertexId> degrees,
                    std::int64_t k, const KvcOptions& options,
                    KvcScratch& scratch) {
  if (k < 0) return KvcResult{};
  Searcher searcher(g, options, scratch);
  return searcher.run(degrees, k);
}

KvcResult solve_kvc(const DenseSubgraph& g, std::int64_t k,
                    const KvcOptions& options) {
  std::vector<VertexId> degrees(g.size());
  for (std::size_t v = 0; v < g.size(); ++v) {
    degrees[v] = static_cast<VertexId>(g.adj[v].count());
  }
  KvcScratch scratch;
  return solve_kvc(g, degrees, k, options, scratch);
}

std::size_t minimum_vertex_cover(const DenseSubgraph& g,
                                 const KvcOptions& options) {
  // Feasibility is monotone in k; binary search between 0 and n.
  std::size_t lo = 0, hi = g.size();
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    KvcResult r = solve_kvc(g, static_cast<std::int64_t>(mid), options);
    if (r.feasible) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace lazymc::vc

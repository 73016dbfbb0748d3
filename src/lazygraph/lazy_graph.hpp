// The lazy filtered relabelled graph (paper Section IV-A, Algorithm 2).
//
// Design goals, quoting the paper:
//  * Relabelling: remap neighbor ids into the (coreness, degree) order
//    only when a neighborhood is first needed, memoizing the result.
//  * Lazy construction: never build neighborhoods for vertices the search
//    skips (most of the graph — Section III-A).
//  * Filtering: drop neighbors whose coreness is below the incumbent
//    clique size *at construction time*.  The zone of interest only
//    shrinks, so anything filtered now is irrelevant forever.
//
// Under the default --rep auto a vertex is answered in one of two ways:
//  * its packed 64-bit bitset row over the *zone of interest* — the
//    suffix of relabelled ids whose coreness was >= the incumbent when
//    enable_bitset_rows() was called — when the auto rule builds one
//    (the row is no dearer to build than the vertex's degree, and the
//    budget has room).  Rows turn |A ∩ B| > θ queries into one AND +
//    popcount per occupied word of A (see intersect/bitset_row.hpp) and
//    cost zone_size/8 bytes each, capped by a global budget;
//  * otherwise its CSR view: the base graph's adjacency list plus the
//    order's id maps.  Nothing is built or cached; the CSR kernel (see
//    mc/intersect_policy.hpp) scans the list against the candidate set's
//    marks.  The view is unfiltered, which is exact for every query the
//    search asks: its candidates all have coreness >= the incumbent.
// The exception is a hub, a vertex whose degree is at least kHubRatio
// times the candidate set it is asked about: its scans would cost far
// more than probes, so it gets a row past the auto rule while the budget
// lasts, else the paper's hopscotch hash set (O(1) probes, ~6
// bytes/neighbor).  With rows on, the medium suite builds no set.
// --rep bitset takes a row wherever zone and budget allow, and the CSR
// view (a hash set for a hub) elsewhere.  Hash sets for every vertex,
// and sorted arrays, are built only under --rep hash and --rep sorted,
// the ablation switches.  The per-vertex set slots are allocated only on
// the first set build.
//
// Right-neighborhoods N+(v) are not a representation: right_neighbors()
// reads them into a caller buffer from v's row if it is built, else from
// the base graph's CSR.
//
// Any subset may have been built, each filtered against a possibly
// different incumbent size.  That is deliberate and safe: discrepancies
// involve only vertices that can no longer affect the search (Section
// IV-A); the bitset rows' zone clipping is the same argument one step
// further (out-of-zone vertices had coreness below the incumbent at
// enable time).
//
// Thread-safety: any number of threads may call the accessors
// concurrently; construction is serialized per-vertex with double-checked
// locking (flag read with acquire, publish with release), and a row build
// takes its storage with one fetch_add on a shared slot counter.
// enable_bitset_rows / set_preferred_rep must be called before concurrent
// use begins.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "hashset/hopscotch_set.hpp"
#include "intersect/bitset_row.hpp"
#include "kcore/order.hpp"
#include "lazygraph/neighborhood_rep.hpp"
#include "support/aligned.hpp"
#include "support/check.hpp"
#include "support/spinlock.hpp"

namespace lazymc {

/// Prepopulation policy for the Fig. 4 ablation.
/// Each builds what the preferred representation builds (rows only,
/// under auto and bitset).
enum class Prepopulate {
  kNone,          // fully lazy
  kMustSubgraph,  // default: prebuild vertices with coreness >= threshold
  kAll,           // eager: prebuild every vertex
};

/// A membership view over whichever representations a vertex has.
/// Satisfies the MembershipSet concept used by the intersection kernels;
/// the adaptive dispatcher (mc::IntersectPolicy) inspects the individual
/// representations to pick a kernel.
class NeighborhoodView {
 public:
  NeighborhoodView(const HopscotchSet* hash, std::span<const VertexId> sorted,
                   BitsetRow row = {})
      : hash_(hash), sorted_(sorted), row_(row) {}
  /// The CSR view: `csr` is the vertex's base adjacency (original ids,
  /// ascending), read through `order`'s id maps, unfiltered.
  NeighborhoodView(std::span<const VertexId> csr,
                   const kcore::VertexOrder& order)
      : hash_(nullptr), csr_(csr), order_(&order) {}

  /// Membership of a relabelled id; a binary search on a CSR view.
  bool contains(VertexId v) const;
  /// The set's size; a CSR view's is the unfiltered degree.
  std::size_t size() const {
    if (hash_) return hash_->size();
    if (!sorted_.empty()) return sorted_.size();
    if (row_.valid()) return row_.size();
    return csr_.size();
  }
  bool is_hashed() const { return hash_ != nullptr; }
  const HopscotchSet* hash_set() const { return hash_; }
  std::span<const VertexId> sorted() const { return sorted_; }
  bool has_bitset() const { return row_.valid(); }
  const BitsetRow& bitset() const { return row_; }
  bool is_csr() const { return order_ != nullptr; }
  /// A CSR view's adjacency list, in original ids.
  std::span<const VertexId> csr() const { return csr_; }
  /// A CSR view's original -> relabelled id map.
  const VertexId* orig_to_new() const { return order_->orig_to_new.data(); }

 private:
  const HopscotchSet* hash_;  // preferred when present
  std::span<const VertexId> sorted_;
  BitsetRow row_;
  std::span<const VertexId> csr_;
  const kcore::VertexOrder* order_ = nullptr;  // set on CSR views only
};

class LazyGraph {
 public:
  /// Degree above which the auto rule considers a bitset row (the paper's
  /// hash-set threshold, Section IV-A: "degree over 16").
  static constexpr VertexId kHashDegreeThreshold = 16;
  /// Degree / candidate-set ratio from which a row-less vertex is a hub
  /// (see membership()).  A CSR scan reads deg(v) ids, two random loads
  /// each, where a hash set answers |A| probes, and hubs are asked by
  /// many heads, which repay the set.  With rows off, 4 brings the medium
  /// graphs that scanning hubs slowed 2-2.5x back to within ~10% of hash
  /// sets everywhere; 2 builds more sets (yahoo) for no gain.
  static constexpr std::size_t kHubRatio = 4;

  /// `incumbent_size` is read (relaxed) every time a neighborhood is
  /// constructed; it must outlive the LazyGraph and only ever increase.
  LazyGraph(const Graph& g, const kcore::VertexOrder& order,
            const std::vector<VertexId>& coreness_orig,
            const std::atomic<VertexId>* incumbent_size);

  VertexId num_vertices() const { return n_; }

  /// Coreness of relabelled vertex v.
  VertexId coreness(VertexId v) const { return coreness_new_[v]; }

  /// First relabelled id whose coreness is >= k (n when there is none).
  /// Relabelled ids ascend by coreness under both supported orders, so
  /// every coreness level, and every suffix of levels, is an id range.
  VertexId first_with_coreness(VertexId k) const {
    return static_cast<VertexId>(
        std::lower_bound(coreness_new_.begin(), coreness_new_.end(), k) -
        coreness_new_.begin());
  }

  /// The incumbent size a neighborhood built now is filtered against (0
  /// without an incumbent).  Only ever grows, so it bounds the filter of
  /// every neighborhood built before the call.
  VertexId filter_bound() const {
    return incumbent_size_ ? incumbent_size_->load(std::memory_order_relaxed)
                           : 0;
  }

  /// Degree of relabelled vertex v in the *original* (unfiltered) graph.
  VertexId original_degree(VertexId v) const {
    return base_->degree(order_->new_to_orig[v]);
  }

  const kcore::VertexOrder& order() const { return *order_; }
  const Graph& base_graph() const { return *base_; }

  /// GetHashedNeighborhood (Algorithm 2): builds on first use.
  const HopscotchSet& hashed_neighborhood(VertexId v);

  /// Sorted filtered relabelled neighborhood; builds on first use.
  std::span<const VertexId> sorted_neighborhood(VertexId v);

  /// Writes the right-neighborhood {u in N(v) : u > v, coreness(u) >=
  /// bound}, ascending, into `out` (cleared first).  Builds and caches
  /// nothing: the answer comes from v's zone row when it is built, else
  /// from the base graph.  Exact when `bound` is at least the filter bound
  /// v's row was built with.  A row built against a higher incumbent than
  /// `bound` (another thread raised it in between) leaves out only
  /// neighbors whose coreness is below that incumbent, which the search
  /// no longer needs.
  void right_neighbors(VertexId v, VertexId bound,
                       std::vector<VertexId>& out) const;

  /// "Either representation" accessor: whatever v has built (its bitset
  /// row first), else what the preferred representation gives (building
  /// it on first use): a hash set under hash, a sorted array under sorted;
  /// under bitset a row, and under auto a row for a vertex the auto rule
  /// gives one, else the CSR view.  `probes` is the size of the candidate
  /// set the caller will test against the view (0: unknown).  Under auto
  /// and bitset, a vertex of degree over kHashDegreeThreshold and at least
  /// kHubRatio x probes is a hub: auto gives it a row past its rule, and
  /// a hub left without a row (rows off, budget spent, out of zone) gets
  /// a hash set instead of the CSR view.
  NeighborhoodView membership(VertexId v, std::size_t probes = 0);

  /// True when the respective representation has been constructed.
  bool has_hashed(VertexId v) const {
    return flags_[v].load(std::memory_order_acquire) & kHashBuilt;
  }
  bool has_sorted(VertexId v) const {
    return flags_[v].load(std::memory_order_acquire) & kSortedBuilt;
  }
  bool has_bitset(VertexId v) const {
    return flags_[v].load(std::memory_order_acquire) & kBitsetBuilt;
  }

  // ---- bitset rows over the zone of interest -----------------------------

  /// Fixes the zone of interest to the relabelled ids whose coreness is >=
  /// the incumbent *now* and allows bitset rows to be built for them, up
  /// to `budget_bytes` of total memory: the O(zone) bookkeeping allocated
  /// here is charged against the budget, and the rest sizes one reserved
  /// block of min(zone, rest / row bytes) rows.  Call once, before the
  /// graph is used concurrently; a no-op when the zone is empty or the
  /// bookkeeping alone would bust the budget.  A failed reservation
  /// leaves rows off (CSR views serve the zone) and counts one
  /// Stats::bitset_degraded.
  void enable_bitset_rows(std::size_t budget_bytes);

  bool bitset_enabled() const { return bitset_enabled_; }
  /// First relabelled id inside the zone (zone = [zone_begin, n)).
  VertexId zone_begin() const { return zone_begin_; }
  /// Zone size in vertices (= bits per row).
  VertexId zone_size() const { return zone_bits_; }

  /// The packed filtered neighborhood of v over the zone; builds on first
  /// use.  Returns an invalid row when rows are disabled, v lies outside
  /// the zone, or the memory budget is exhausted.
  BitsetRow bitset_row(VertexId v);

  // ---- prebuilt rows (binary graph store) --------------------------------

  /// Adopts a block of prebuilt zone rows (the binary graph store's
  /// mmap'ed row section) instead of reserving and building rows: every
  /// in-zone vertex is immediately marked built, pointing straight at the
  /// caller's storage — zero copies, and stats().bitset_built stays 0
  /// for adopted rows.
  ///
  /// Returns false — leaving the graph untouched, lazy building still
  /// available — when rows are already enabled, `rows` is malformed for
  /// this graph (zone not the suffix [zone_begin, n), stride too small /
  /// unaligned), or the stored zone does not cover the zone the current
  /// incumbent implies (some vertex with coreness >= incumbent lies
  /// before the stored zone_begin; its bits would be missing from every
  /// row, which is NOT covered by the heterogeneous-incumbent invariant).
  ///
  /// Lifetime: the caller keeps the backing storage alive for this
  /// graph's lifetime.  Call before concurrent use, like
  /// enable_bitset_rows.
  ///
  /// The second parameter is kept only because lmcbench/main.cpp passes
  /// it: `false` adopts as described; `true` (the removed hybrid-row
  /// view) returns false and leaves the graph untouched.
  bool adopt_prebuilt_rows(const PrebuiltRows& rows, bool hybrid);

  /// Representation `membership()` builds when a vertex has none.
  void set_preferred_rep(NeighborhoodRep rep) { rep_ = rep; }
  NeighborhoodRep preferred_rep() const { return rep_; }

  /// Prebuilds neighborhoods according to `policy`; the must-subgraph
  /// policy builds vertices with coreness >= threshold (paper Section V-C;
  /// mc::lazy_mc passes the incumbent the coreness heuristic leaves).
  /// The representation follows the preferred rep: hash sets or sorted
  /// arrays under hash and sorted; only bitset rows under bitset and
  /// auto (auto: the rows its rule wants), so without rows nothing is
  /// built.  Runs in parallel.
  void prepopulate(Prepopulate policy, VertexId must_threshold);

  /// Instrumentation.
  struct Stats {
    std::size_t hash_built = 0;
    std::size_t sorted_built = 0;
    std::size_t bitset_built = 0;
    std::size_t bitset_degraded = 0;  // failed row allocations (a row
                                      // build, or the whole block) that
                                      // fell back to the next view
    std::size_t rows_prebuilt = 0;    // zone rows adopted from a binary
                                      // store (never built)
    std::size_t bitset_bytes = 0;  // row storage written: built rows x
                                   // the 64-byte-aligned row stride
    std::size_t zone_size = 0;     // bits per row (0 = rows disabled)
    std::size_t neighbors_kept = 0;
    std::size_t neighbors_filtered = 0;
    // Always 0: kept only because lmcbench/main.cpp reads them, from
    // when zone rows could also be stored as hybrid containers.
    std::size_t hybrid_rows_array = 0;
    std::size_t hybrid_rows_bitset = 0;
    std::size_t hybrid_rows_run = 0;
  };
  Stats stats() const;

 private:
  static constexpr std::uint8_t kHashBuilt = 1;
  static constexpr std::uint8_t kSortedBuilt = 2;
  static constexpr std::uint8_t kBitsetBuilt = 4;

  /// Builds the filtered relabelled neighbor list of v (unsorted).
  std::vector<VertexId> filtered_neighbors(VertexId v) const;

  /// Allocates the per-vertex hash-set and sorted-array slots, once.
  void allocate_sets();
  void build_hash(VertexId v);
  void build_sorted(VertexId v);
  /// Attempts to build v's bitset row (a free slot permitting); the
  /// kBitsetBuilt flag reports success.
  void build_bitset(VertexId v);

  /// Whether the auto rule prefers a bitset row for v: enabled, in zone,
  /// and the worst-case row build cost (zone_words memset) is within a
  /// small factor of the hash-set build cost (degree inserts).  A spent
  /// budget is bitset_row's to report: it then returns an invalid row.
  bool auto_wants_bitset(VertexId v, VertexId degree) const {
    return bitset_enabled_ && v >= zone_begin_ &&
           row_words_ <= std::max<std::size_t>(64, 4 * std::size_t{degree});
  }

  BitsetRow row_view(VertexId v) const {
    LAZYMC_ASSERT(v >= zone_begin_ && v - zone_begin_ < zone_bits_,
                  "bitset row requested for a vertex outside the zone of "
                  "interest");
    const VertexId i = v - zone_begin_;
    return BitsetRow{row_ptr_[i], zone_begin_, zone_bits_, row_count_[i]};
  }

  const Graph* base_;
  const kcore::VertexOrder* order_;
  const std::atomic<VertexId>* incumbent_size_;
  VertexId n_;
  std::vector<VertexId> coreness_new_;  // indexed by relabelled id

  std::vector<std::atomic<std::uint8_t>> flags_;
  std::unique_ptr<SpinLock[]> locks_;
  // One slot per vertex, allocated by the first hash or sorted build
  // (sets_once_): only --rep hash|sorted, row-less hubs and direct calls
  // make those.
  std::once_flag sets_once_;
  std::unique_ptr<HopscotchSet[]> hash_;
  std::unique_ptr<std::vector<VertexId>[]> sorted_;

  // bitset rows (zone-indexed: entry i is relabelled vertex zone_begin_+i)
  NeighborhoodRep rep_ = NeighborhoodRep::kAuto;
  bool bitset_enabled_ = false;
  VertexId zone_begin_ = 0;
  VertexId zone_bits_ = 0;
  std::size_t row_words_ = 0;
  // Row storage: one block of row_capacity_ rows reserved by
  // enable_bitset_rows, left uninitialized so only the pages of rows
  // actually built are ever touched.  Rows sit at a 64-byte stride
  // (row_stride_words_, row_words_ rounded up to 8) from a 64-byte-aligned
  // base, so every row starts on a cache line, as in the store's row
  // section.  A build claims slot next_slot_++; a slot at or past the
  // capacity means the budget is spent.  Rows live as long as the graph.
  std::size_t row_stride_words_ = 0;
  std::size_t row_capacity_ = 0;
  AlignedBlock row_block_;
  std::atomic<std::size_t> next_slot_{0};
  std::vector<std::uint64_t*> row_ptr_;  // null until the row is built
  std::vector<std::uint32_t> row_count_;
  // Rows adopted from a binary store (adopt_prebuilt_rows): the zone size
  // at adoption, 0 when rows are lazily built.  The row pointers then
  // alias read-only caller storage, never row_block_.
  std::size_t rows_prebuilt_ = 0;

  // stats counters (relaxed)
  mutable std::atomic<std::size_t> stat_hash_built_{0};
  mutable std::atomic<std::size_t> stat_sorted_built_{0};
  mutable std::atomic<std::size_t> stat_bitset_degraded_{0};
  mutable std::atomic<std::size_t> stat_kept_{0};
  mutable std::atomic<std::size_t> stat_filtered_{0};
};

}  // namespace lazymc

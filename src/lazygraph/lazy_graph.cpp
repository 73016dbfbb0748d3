#include "lazygraph/lazy_graph.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "intersect/intersect.hpp"
#include "support/faultinject.hpp"
#include "support/parallel.hpp"

namespace lazymc {

bool NeighborhoodView::contains(VertexId v) const {
  if (hash_) return hash_->contains(v);
  if (!sorted_.empty()) {
    return std::binary_search(sorted_.begin(), sorted_.end(), v);
  }
  if (row_.valid()) return row_.contains(v);
  if (order_) {
    return std::binary_search(csr_.begin(), csr_.end(),
                              order_->new_to_orig[v]);
  }
  return false;
}

LazyGraph::LazyGraph(const Graph& g, const kcore::VertexOrder& order,
                     const std::vector<VertexId>& coreness_orig,
                     const std::atomic<VertexId>* incumbent_size)
    : base_(&g),
      order_(&order),
      incumbent_size_(incumbent_size),
      n_(g.num_vertices()),
      flags_(g.num_vertices()),
      locks_(std::make_unique<SpinLock[]>(g.num_vertices())) {
  if (coreness_orig.size() != n_ || order.size() != n_) {
    throw std::invalid_argument("LazyGraph: order/coreness size mismatch");
  }
  coreness_new_.resize(n_);
  for (VertexId v = 0; v < n_; ++v) {
    coreness_new_[v] = coreness_orig[order.new_to_orig[v]];
  }
  LAZYMC_ASSERT_EXPENSIVE(
      std::is_sorted(coreness_new_.begin(), coreness_new_.end()),
      "relabelled ids do not ascend by coreness");
  for (auto& f : flags_) f.store(0, std::memory_order_relaxed);
}

std::vector<VertexId> LazyGraph::filtered_neighbors(VertexId v) const {
  // Lazy filtering by coreness against the incumbent size *now*
  // (Algorithm 2 line 20).  A relaxed read is safe: the incumbent only
  // grows, so a stale (smaller) value merely filters less.
  const VertexId bound = filter_bound();
  const VertexId orig = order_->new_to_orig[v];
  std::vector<VertexId> result;
  auto nbrs = base_->neighbors(orig);
  result.reserve(nbrs.size());
  std::size_t filtered = 0;
  for (VertexId u_orig : nbrs) {
    VertexId u = order_->orig_to_new[u_orig];
    if (coreness_new_[u] >= bound) {
      result.push_back(u);
    } else {
      ++filtered;
    }
  }
  stat_kept_.fetch_add(result.size(), std::memory_order_relaxed);
  stat_filtered_.fetch_add(filtered, std::memory_order_relaxed);
  return result;
}

void LazyGraph::allocate_sets() {
  std::call_once(sets_once_, [this] {
    hash_ = std::make_unique<HopscotchSet[]>(n_);
    sorted_ = std::make_unique<std::vector<VertexId>[]>(n_);
  });
}

void LazyGraph::build_hash(VertexId v) {
  allocate_sets();
  SpinLockGuard guard(locks_[v]);
  if (flags_[v].load(std::memory_order_relaxed) & kHashBuilt) return;
  std::vector<VertexId> nbrs = filtered_neighbors(v);
  hash_[v].reserve(nbrs.size());
  for (VertexId u : nbrs) hash_[v].insert(u);
  stat_hash_built_.fetch_add(1, std::memory_order_relaxed);
  flags_[v].fetch_or(kHashBuilt, std::memory_order_release);
}

void LazyGraph::build_sorted(VertexId v) {
  allocate_sets();
  SpinLockGuard guard(locks_[v]);
  if (flags_[v].load(std::memory_order_relaxed) & kSortedBuilt) return;
  std::vector<VertexId> nbrs = filtered_neighbors(v);
  std::sort(nbrs.begin(), nbrs.end());
  sorted_[v] = std::move(nbrs);
  stat_sorted_built_.fetch_add(1, std::memory_order_relaxed);
  flags_[v].fetch_or(kSortedBuilt, std::memory_order_release);
}

void LazyGraph::build_bitset(VertexId v) {
  SpinLockGuard guard(locks_[v]);
  if (flags_[v].load(std::memory_order_relaxed) & kBitsetBuilt) return;
  // Every slot claimed: the budget is spent, so skip the neighbor scan.
  if (next_slot_.load(std::memory_order_relaxed) >= row_capacity_) return;
  std::vector<VertexId> nbrs;
  try {
    LAZYMC_FAULT_BAD_ALLOC("bitset.row");
    nbrs = filtered_neighbors(v);
  } catch (const std::bad_alloc&) {
    // Allocation failure degrades this one vertex, not the solve: count
    // it and leave kBitsetBuilt clear so membership() falls back to the
    // next view.  No slot was claimed, so later rows keep their chance.
    stat_bitset_degraded_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t slot = next_slot_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= row_capacity_) return;  // another build took the last slot
  // Zero the whole stride: the block is uninitialized, and this leaves
  // no readable word of it undefined.
  std::uint64_t* row = row_block_.get() + slot * row_stride_words_;
  std::fill(row, row + row_stride_words_, 0);
  std::uint32_t count = 0;
  for (VertexId u : nbrs) {
    if (u < zone_begin_) continue;
    const VertexId off = u - zone_begin_;
    LAZYMC_ASSERT(off < zone_bits_,
                  "bitset row bit outside the zone of interest");
    row[off >> 6] |= 1ULL << (off & 63);
    ++count;
  }
  LAZYMC_ASSERT_EXPENSIVE(
      std::accumulate(row, row + row_words_, std::size_t{0},
                      [](std::size_t acc, std::uint64_t w) {
                        return acc + static_cast<std::size_t>(
                                         std::popcount(w));
                      }) == count,
      "bitset row popcount does not match the bits written");
  row_ptr_[v - zone_begin_] = row;
  row_count_[v - zone_begin_] = count;
  // The release publishes the row pointer and its contents to readers
  // that load the flag with acquire (row_view).
  flags_[v].fetch_or(kBitsetBuilt, std::memory_order_release);
}

void LazyGraph::enable_bitset_rows(std::size_t budget_bytes) {
  if (bitset_enabled_) return;
  // The zone of interest is the suffix of vertices with coreness >= the
  // incumbent.
  const VertexId zb = first_with_coreness(filter_bound());
  if (zb >= n_) return;  // empty zone: nothing left to search anyway
  const VertexId zone_bits = n_ - zb;
  // The per-vertex bookkeeping (row pointer + popcount array) is O(zone)
  // and allocated up front, so it counts against the budget too —
  // otherwise a huge zone could dwarf the cap before any row is built.
  const std::size_t overhead =
      static_cast<std::size_t>(zone_bits) *
      (sizeof(std::uint64_t*) + sizeof(std::uint32_t));
  if (budget_bytes <= overhead) return;  // zone too large for budget
  const std::size_t words = (static_cast<std::size_t>(zone_bits) + 63) / 64;
  // The budget charges the 64-byte stride, not the raw row width.
  const std::size_t stride = (words + 7) & ~std::size_t{7};
  const std::size_t capacity = std::min<std::size_t>(
      zone_bits, (budget_bytes - overhead) / (stride * 8));
  try {
    LAZYMC_FAULT_BAD_ALLOC("slab.alloc");
    row_block_ = allocate_aligned_block(capacity * stride);
  } catch (const std::bad_alloc&) {
    // Without the block there are no rows for this solve; CSR views (or
    // hash/sorted sets) serve the zone instead.
    stat_bitset_degraded_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  zone_begin_ = zb;
  zone_bits_ = zone_bits;
  row_words_ = words;
  row_stride_words_ = stride;
  row_capacity_ = capacity;
  row_ptr_.assign(zone_bits_, nullptr);
  row_count_.assign(zone_bits_, 0);
  bitset_enabled_ = true;
}

bool LazyGraph::adopt_prebuilt_rows(const PrebuiltRows& rows, bool hybrid) {
  if (hybrid || bitset_enabled_) return false;
  if (!rows.valid()) return false;
  // The zone must be exactly the suffix [zone_begin, n) of relabelled
  // ids — the store and this graph must agree on the vertex order for
  // the bit positions to mean the same vertices.
  if (rows.zone_begin >= n_ || n_ - rows.zone_begin != rows.zone_bits) {
    return false;
  }
  const std::size_t words =
      (static_cast<std::size_t>(rows.zone_bits) + 63) / 64;
  if (rows.stride_words < words || rows.stride_words % 8 != 0 ||
      reinterpret_cast<std::uintptr_t>(rows.words) % 64 != 0) {
    return false;  // not the store's row layout
  }
  // Zone-coverage check: every vertex with coreness >= the incumbent must
  // be *inside* the stored zone.  Stored rows may cover extra low-coreness
  // vertices (they are supersets, safe by the heterogeneous-incumbent
  // filtering invariant) but never fewer — a vertex outside the stored
  // zone has no bit position, so its adjacency would silently vanish.
  const VertexId bound = filter_bound();
  if (rows.zone_begin > 0 && coreness_new_[rows.zone_begin - 1] >= bound) {
    return false;  // stored zone is narrower than the live zone
  }

  zone_begin_ = rows.zone_begin;
  zone_bits_ = rows.zone_bits;
  row_words_ = words;
  row_stride_words_ = rows.stride_words;
  row_ptr_.resize(zone_bits_);
  row_count_.assign(rows.counts, rows.counts + zone_bits_);
  for (VertexId i = 0; i < zone_bits_; ++i) {
    // const_cast only to fit the shared row_ptr_ slot; adopted rows are
    // published as built, so no build path ever writes through them
    // (the backing mmap is PROT_READ — a write would fault).
    row_ptr_[i] = const_cast<std::uint64_t*>(
        rows.words + static_cast<std::size_t>(i) * rows.stride_words);
  }
  rows_prebuilt_ = zone_bits_;
  for (VertexId v = zone_begin_; v < n_; ++v) {
    // The release publishes the pointers and metadata written above to
    // readers that load the flag with acquire (row_view).
    flags_[v].fetch_or(kBitsetBuilt, std::memory_order_release);
  }
  bitset_enabled_ = true;
  return true;
}

const HopscotchSet& LazyGraph::hashed_neighborhood(VertexId v) {
  if (!(flags_[v].load(std::memory_order_acquire) & kHashBuilt)) {
    build_hash(v);
  }
  return hash_[v];
}

std::span<const VertexId> LazyGraph::sorted_neighborhood(VertexId v) {
  if (!(flags_[v].load(std::memory_order_acquire) & kSortedBuilt)) {
    build_sorted(v);
  }
  return {sorted_[v].data(), sorted_[v].size()};
}

void LazyGraph::right_neighbors(VertexId v, VertexId bound,
                                std::vector<VertexId>& out) const {
  out.clear();
  if (flags_[v].load(std::memory_order_acquire) & kBitsetBuilt) {
    // Bit i of the row is vertex zone_begin_ + i, so N+(v) is the row's
    // bits after v's own, already ascending.
    const std::size_t start = std::size_t{v - zone_begin_} + 1;
    const std::size_t first = start >> 6;
    const std::uint64_t* row = row_ptr_[v - zone_begin_];
    // Bits past the zone's end are never set in a built row, but an
    // adopted store row is outside input, so mask them off anyway.
    const std::uint64_t tail =
        ~std::uint64_t{0} >> ((64 - zone_bits_ % 64) % 64);
    for (std::size_t w = first; w < row_words_; ++w) {
      std::uint64_t word = row[w];
      if (w == first) word &= ~((std::uint64_t{1} << (start & 63)) - 1);
      if (w + 1 == row_words_) word &= tail;
      for (; word != 0; word &= word - 1) {
        const VertexId u =
            zone_begin_ +
            static_cast<VertexId>((w << 6) + std::countr_zero(word));
        if (coreness_new_[u] >= bound) out.push_back(u);
      }
    }
    return;
  }
  for (VertexId u_orig : base_->neighbors(order_->new_to_orig[v])) {
    const VertexId u = order_->orig_to_new[u_orig];
    if (u > v && coreness_new_[u] >= bound) out.push_back(u);
  }
  std::sort(out.begin(), out.end());
}

BitsetRow LazyGraph::bitset_row(VertexId v) {
  if (!bitset_enabled_ || v < zone_begin_) return {};
  if (!(flags_[v].load(std::memory_order_acquire) & kBitsetBuilt)) {
    build_bitset(v);
    if (!(flags_[v].load(std::memory_order_acquire) & kBitsetBuilt)) {
      return {};  // budget exhausted
    }
  }
  return row_view(v);
}

NeighborhoodView LazyGraph::membership(VertexId v, std::size_t probes) {
  const std::uint8_t f = flags_[v].load(std::memory_order_acquire);
  if (f & kBitsetBuilt) return NeighborhoodView(nullptr, {}, row_view(v));
  if (f & kHashBuilt) return NeighborhoodView(&hash_[v], {});
  if (f & kSortedBuilt) {
    return NeighborhoodView(nullptr, {sorted_[v].data(), sorted_[v].size()});
  }
  if (rep_ == NeighborhoodRep::kHash) {
    return NeighborhoodView(&hashed_neighborhood(v), {});
  }
  if (rep_ == NeighborhoodRep::kSorted) {
    return NeighborhoodView(nullptr, sorted_neighborhood(v));
  }
  // Bitset takes a row wherever it can.  Auto takes one when it is no
  // dearer to build than the set the paper would build (degree over 16),
  // and for a hub while the budget lasts.
  const VertexId deg = original_degree(v);
  const bool hub = probes > 0 && deg > kHashDegreeThreshold &&
                   deg >= kHubRatio * probes;
  if (rep_ == NeighborhoodRep::kBitset ||
      (deg > kHashDegreeThreshold && (hub || auto_wants_bitset(v, deg)))) {
    if (BitsetRow r = bitset_row(v); r.valid()) {
      return NeighborhoodView(nullptr, {}, r);
    }
  }
  // A row-less hub's CSR scans would read kHubRatio times more than
  // probes of A into a hash set; anything else reads the CSR.
  if (hub) return NeighborhoodView(&hashed_neighborhood(v), {});
  return NeighborhoodView(base_->neighbors(order_->new_to_orig[v]), *order_);
}

void LazyGraph::prepopulate(Prepopulate policy, VertexId must_threshold) {
  if (policy == Prepopulate::kNone) return;
  VertexId first =
      policy == Prepopulate::kAll ? 0 : first_with_coreness(must_threshold);
  const bool rows_only = rep_ == NeighborhoodRep::kAuto ||
                         rep_ == NeighborhoodRep::kBitset;
  if (rows_only) {
    if (!bitset_enabled_) return;
    first = std::max(first, zone_begin_);
  }
  parallel_for(first, n_, [&](std::size_t i) {
    const VertexId v = static_cast<VertexId>(i);
    switch (rep_) {
      case NeighborhoodRep::kHash:
        hashed_neighborhood(v);
        break;
      case NeighborhoodRep::kSorted:
        sorted_neighborhood(v);
        break;
      case NeighborhoodRep::kBitset:
        bitset_row(v);
        break;
      case NeighborhoodRep::kAuto:
        if (auto_wants_bitset(v, original_degree(v))) bitset_row(v);
        break;
    }
  }, 64);
}

LazyGraph::Stats LazyGraph::stats() const {
  Stats s;
  s.hash_built = stat_hash_built_.load(std::memory_order_relaxed);
  s.sorted_built = stat_sorted_built_.load(std::memory_order_relaxed);
  s.bitset_built =
      std::min(next_slot_.load(std::memory_order_relaxed), row_capacity_);
  s.bitset_degraded = stat_bitset_degraded_.load(std::memory_order_relaxed);
  s.rows_prebuilt = rows_prebuilt_;
  s.bitset_bytes = s.bitset_built * row_stride_words_ * 8;
  s.zone_size = bitset_enabled_ ? static_cast<std::size_t>(zone_bits_) : 0;
  s.neighbors_kept = stat_kept_.load(std::memory_order_relaxed);
  s.neighbors_filtered = stat_filtered_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace lazymc

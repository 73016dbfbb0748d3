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
      locks_(std::make_unique<SpinLock[]>(g.num_vertices())),
      hash_(g.num_vertices()),
      sorted_(g.num_vertices()) {
  if (coreness_orig.size() != n_ || order.size() != n_) {
    throw std::invalid_argument("LazyGraph: order/coreness size mismatch");
  }
  coreness_new_.resize(n_);
  for (VertexId v = 0; v < n_; ++v) {
    coreness_new_[v] = coreness_orig[order.new_to_orig[v]];
  }
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

void LazyGraph::build_hash(VertexId v) {
  SpinLockGuard guard(locks_[v]);
  if (flags_[v].load(std::memory_order_relaxed) & kHashBuilt) return;
  std::vector<VertexId> nbrs = filtered_neighbors(v);
  hash_[v].reserve(nbrs.size());
  for (VertexId u : nbrs) hash_[v].insert(u);
  stat_hash_built_.fetch_add(1, std::memory_order_relaxed);
  flags_[v].fetch_or(kHashBuilt, std::memory_order_release);
}

void LazyGraph::build_sorted(VertexId v) {
  SpinLockGuard guard(locks_[v]);
  if (flags_[v].load(std::memory_order_relaxed) & kSortedBuilt) return;
  std::vector<VertexId> nbrs = filtered_neighbors(v);
  std::sort(nbrs.begin(), nbrs.end());
  sorted_[v] = std::move(nbrs);
  stat_sorted_built_.fetch_add(1, std::memory_order_relaxed);
  flags_[v].fetch_or(kSortedBuilt, std::memory_order_release);
}

std::uint64_t* LazyGraph::carve_row() {
  const std::size_t stride = row_stride_words_;
  SpinLockGuard guard(arena_lock_);
  if (slab_words_left_ < stride) {
    LAZYMC_FAULT_BAD_ALLOC("slab.alloc");
    // The caller already reserved this row from the budget, so
    // `remaining` counts the *other* rows that can still be admitted;
    // sizing the slab to them (plus this row) keeps total arena
    // allocation within the budget instead of overshooting by up to a
    // slab.  Slabs hold whole rows, so a slab is always used up exactly.
    const std::int64_t remaining =
        bitset_budget_words_.load(std::memory_order_relaxed);
    std::size_t words = stride;
    if (remaining > 0) {
      words += std::min(slab_words_ - stride,
                        static_cast<std::size_t>(remaining) / stride * stride);
    }
    // AlignedWords puts the slab base on a 64-byte boundary; carving at
    // multiples of 8 words keeps every row on one too.
    row_slabs_.emplace_back(words);
    arena_total_words_.fetch_add(words, std::memory_order_relaxed);
    slab_cursor_ = row_slabs_.back().data();
    slab_words_left_ = words;
  }
  std::uint64_t* row = slab_cursor_;
  slab_cursor_ += stride;
  slab_words_left_ -= stride;
  arena_carved_words_.fetch_add(stride, std::memory_order_relaxed);
  LAZYMC_ASSERT(arena_total_words_.load(std::memory_order_relaxed) ==
                    arena_carved_words_.load(std::memory_order_relaxed) +
                        slab_words_left_,
                "slab arena accounting drifted: allocated != carved + "
                "remainder");
  return row;
}

void LazyGraph::build_bitset(VertexId v) {
  SpinLockGuard guard(locks_[v]);
  if (flags_[v].load(std::memory_order_relaxed) & kBitsetBuilt) return;
  if (bitset_exhausted_.load(std::memory_order_relaxed)) return;
  // Reserve this row's words (at the aligned stride) from the global
  // budget before committing.
  const std::int64_t words = static_cast<std::int64_t>(row_stride_words_);
  if (bitset_budget_words_.fetch_sub(words, std::memory_order_relaxed) <
      words) {
    bitset_budget_words_.fetch_add(words, std::memory_order_relaxed);
    bitset_exhausted_.store(true, std::memory_order_relaxed);
    return;
  }
  std::vector<VertexId> nbrs;
  std::uint64_t* row = nullptr;
  try {
    LAZYMC_FAULT_BAD_ALLOC("bitset.row");
    nbrs = filtered_neighbors(v);
    row = carve_row();
  } catch (const std::bad_alloc&) {
    // Allocation failure degrades this one vertex, not the solve: refund
    // the reserved words (another row may still fit), count it, and leave
    // kBitsetBuilt clear so membership() falls back to hash/sorted.  The
    // exhausted flag stays down — later rows get their own chance.
    bitset_budget_words_.fetch_add(words, std::memory_order_relaxed);
    stat_bitset_degraded_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Rows are carved at a 64-byte stride from 64-byte-aligned slabs, so
  // each starts on a cache line.
  LAZYMC_ASSERT(reinterpret_cast<std::uintptr_t>(row) % 64 == 0,
                "bitset row is not 64-byte aligned");
  std::fill(row, row + row_words_, 0);
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
  stat_bitset_built_.fetch_add(1, std::memory_order_relaxed);
  stat_bitset_words_.fetch_add(row_stride_words_, std::memory_order_relaxed);
  // The release publishes the row pointer and its contents to readers
  // that load the flag with acquire (row_view).
  flags_[v].fetch_or(kBitsetBuilt, std::memory_order_release);
}

void LazyGraph::enable_bitset_rows(std::size_t budget_bytes) {
  if (bitset_enabled_) return;
  const VertexId bound = filter_bound();
  // Relabelled ids are sorted by ascending coreness (both supported
  // orders), so the zone of interest is the suffix starting at the first
  // vertex with coreness >= the incumbent.
  const VertexId zb = static_cast<VertexId>(
      std::lower_bound(coreness_new_.begin(), coreness_new_.end(), bound) -
      coreness_new_.begin());
  if (zb >= n_) return;  // empty zone: nothing left to search anyway
  const VertexId zone_bits = n_ - zb;
  // The per-vertex bookkeeping (row pointer + popcount array) is O(zone)
  // and allocated up front, so it counts against the budget too —
  // otherwise a huge zone could dwarf the cap before any row is built.
  const std::size_t overhead =
      static_cast<std::size_t>(zone_bits) *
      (sizeof(std::uint64_t*) + sizeof(std::uint32_t));
  if (budget_bytes <= overhead) return;  // zone too large for budget
  zone_begin_ = zb;
  zone_bits_ = zone_bits;
  row_words_ = (static_cast<std::size_t>(zone_bits_) + 63) / 64;
  // Rows are carved at a 64-byte stride (whole cache lines) so each one
  // starts aligned; the budget charges the stride, not the raw width.
  row_stride_words_ = (row_words_ + 7) & ~std::size_t{7};
  row_ptr_.assign(zone_bits_, nullptr);
  row_count_.assign(zone_bits_, 0);
  const std::size_t budget_words = (budget_bytes - overhead) / 8;
  // Arena slabs target ~1 MiB, rounded to whole rows, never exceeding
  // what the zone or the budget can use — the allocator is touched once
  // per slab instead of once per row.
  std::size_t rows_per_slab =
      std::max<std::size_t>(1, (std::size_t{1} << 17) / row_stride_words_);
  rows_per_slab = std::min<std::size_t>(rows_per_slab, zone_bits_);
  rows_per_slab = std::min<std::size_t>(
      rows_per_slab,
      std::max<std::size_t>(1, budget_words / row_stride_words_));
  {
    // Zone enabling runs before concurrent use begins, but the arena
    // fields belong to arena_lock_, so initialize them under it — keeps
    // the lock discipline total (and -Wthread-safety clean).
    SpinLockGuard guard(arena_lock_);
    slab_words_ = rows_per_slab * row_stride_words_;
    slab_cursor_ = nullptr;
    slab_words_left_ = 0;
  }
  arena_total_words_.store(0, std::memory_order_relaxed);
  arena_carved_words_.store(0, std::memory_order_relaxed);
  bitset_budget_words_.store(static_cast<std::int64_t>(budget_words),
                             std::memory_order_relaxed);
  bitset_exhausted_.store(false, std::memory_order_relaxed);
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
  // No budget: nothing will ever be carved (every zone row already
  // exists), and out-of-zone vertices never get rows by construction.
  bitset_budget_words_.store(0, std::memory_order_relaxed);
  bitset_exhausted_.store(false, std::memory_order_relaxed);
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

NeighborhoodView LazyGraph::membership(VertexId v) {
  std::uint8_t f = flags_[v].load(std::memory_order_acquire);
  BitsetRow row{};
  if (f & kBitsetBuilt) row = row_view(v);
  if (f & kHashBuilt) return NeighborhoodView(&hash_[v], {}, row);
  if (f & kSortedBuilt) {
    return NeighborhoodView(nullptr, {sorted_[v].data(), sorted_[v].size()},
                            row);
  }
  if (row.valid()) return NeighborhoodView(nullptr, {}, row);

  // Nothing exists yet: build by preference.
  if (rep_ == NeighborhoodRep::kHash) {
    return NeighborhoodView(&hashed_neighborhood(v), {});
  }
  if (rep_ == NeighborhoodRep::kSorted) {
    return NeighborhoodView(nullptr, sorted_neighborhood(v));
  }
  if (rep_ == NeighborhoodRep::kBitset) {
    BitsetRow r = bitset_row(v);
    if (r.valid()) return NeighborhoodView(nullptr, {}, r);
    // Out of zone or budget: fall through to the auto rule.
  }
  // Auto rule (paper: hash when degree > 16), upgraded to a bitset row
  // when one is available and no more expensive to build than the set.
  const VertexId deg = original_degree(v);
  if (deg > kHashDegreeThreshold) {
    if (auto_wants_bitset(v, deg)) {
      BitsetRow r = bitset_row(v);
      if (r.valid()) return NeighborhoodView(nullptr, {}, r);
    }
    return NeighborhoodView(&hashed_neighborhood(v), {});
  }
  return NeighborhoodView(nullptr, sorted_neighborhood(v));
}

void LazyGraph::prepopulate(Prepopulate policy, VertexId must_threshold) {
  if (policy == Prepopulate::kNone) return;
  // The must subgraph is a suffix of the relabelled ids, which ascend by
  // coreness (see enable_bitset_rows).
  const std::size_t first =
      policy == Prepopulate::kAll
          ? 0
          : static_cast<std::size_t>(
                std::lower_bound(coreness_new_.begin(), coreness_new_.end(),
                                 must_threshold) -
                coreness_new_.begin());
  parallel_for(first, n_, [&](std::size_t i) {
    const VertexId v = static_cast<VertexId>(i);
    // Build the preferred representation; hash is the historical default
    // and the fallback when a requested bitset row is unavailable.
    switch (rep_) {
      case NeighborhoodRep::kSorted:
        sorted_neighborhood(v);
        return;
      case NeighborhoodRep::kBitset:
        if (bitset_row(v).valid()) return;
        break;
      case NeighborhoodRep::kAuto:
        if (auto_wants_bitset(v, original_degree(v)) &&
            bitset_row(v).valid()) {
          return;
        }
        break;
      case NeighborhoodRep::kHash:
        break;
    }
    hashed_neighborhood(v);
  }, 64);
}

LazyGraph::Stats LazyGraph::stats() const {
  Stats s;
  s.hash_built = stat_hash_built_.load(std::memory_order_relaxed);
  s.sorted_built = stat_sorted_built_.load(std::memory_order_relaxed);
  s.bitset_built = stat_bitset_built_.load(std::memory_order_relaxed);
  s.bitset_degraded = stat_bitset_degraded_.load(std::memory_order_relaxed);
  s.rows_prebuilt = rows_prebuilt_;
  s.bitset_bytes = stat_bitset_words_.load(std::memory_order_relaxed) * 8;
  s.zone_size = bitset_enabled_ ? static_cast<std::size_t>(zone_bits_) : 0;
  s.neighbors_kept = stat_kept_.load(std::memory_order_relaxed);
  s.neighbors_filtered = stat_filtered_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace lazymc

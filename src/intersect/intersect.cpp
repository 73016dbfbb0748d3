#include "intersect/intersect.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"

namespace lazymc {

bool SortedLookup::contains(VertexId v) const {
  return std::binary_search(data_.begin(), data_.end(), v);
}

void IdMarks::cover(VertexId base, VertexId end) {
  if (base >= base_ && end <= end_) return;
  LAZYMC_ASSERT(count_ == 0, "IdMarks moved while ids are marked");
  base_ = base;
  end_ = end;
  marks_.clear();
}

void IdMarks::mark(std::span<const VertexId> ids, const VertexId* map) {
  LAZYMC_ASSERT(count_ == 0, "IdMarks marked twice without a clear");
  if (marks_.empty()) marks_.assign(end_ - base_, 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const VertexId x = map ? map[ids[i]] : ids[i];
    const VertexId k = x - base_;
    if (k >= marks_.size()) {
      LAZYMC_ASSERT(map != nullptr, "IdMarks: id outside the covered range");
      continue;
    }
    marks_[k] = static_cast<std::uint32_t>(i + 1);
    ++count_;
  }
}

void IdMarks::clear(std::span<const VertexId> ids, const VertexId* map) {
  if (count_ == 0) return;
  for (VertexId id : ids) {
    const VertexId k = (map ? map[id] : id) - base_;
    if (k < marks_.size()) marks_[k] = 0;
  }
  count_ = 0;
}

template <Query Q, Exits E>
  requires ScanExits<Q, E>
QueryResult<Q> merge_scan(std::span<const VertexId> a,
                          std::span<const VertexId> b, VertexId* out,
                          std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if constexpr (E != Exits::none) {
    if (n <= theta || m <= theta) return too_small<Q>();
  }
  [[maybe_unused]] std::int64_t budget_a = n - theta;
  [[maybe_unused]] std::int64_t budget_b = m - theta;
  std::int64_t hits = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
      if constexpr (E != Exits::none) {
        if (--budget_a <= 0) return too_small<Q>();
      }
    } else if (b[j] < a[i]) {
      ++j;
      if constexpr (E != Exits::none) {
        if (--budget_b <= 0) return too_small<Q>();
      }
    } else {
      if constexpr (Q == Query::gt) out[hits] = a[i];
      ++hits;
      ++i;
      ++j;
      if constexpr (Q == Query::size_gt_bool && E == Exits::all) {
        if (hits > theta) return true;
      }
    }
  }
  return verdict<Q>(hits, theta);
}

// A's cumulative word popcounts (SparseWordSet::prefix) turn the
// miss-budget update h -= popcount(a) - popcount(a&b) into the equivalent
// test hits + (|A| - prefix) <= θ, so the A side is never counted here.

namespace {

/// Appends the set bits of `word` (zone word `index`) to `out` as
/// relabelled vertex ids; returns how many.
inline std::size_t extract_word(std::uint64_t word, std::uint32_t index,
                                VertexId base, VertexId* out) {
  std::size_t written = 0;
  const VertexId word_base = base + (static_cast<VertexId>(index) << 6);
  while (word) {
    out[written++] =
        word_base + static_cast<unsigned>(std::countr_zero(word));
    word &= word - 1;
  }
  return written;
}

}  // namespace

template <Query Q, Exits E>
  requires ScanExits<Q, E>
QueryResult<Q> word_scan(const SparseWordSet& a, const BitsetRow& b,
                         VertexId* out, std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.count());
  if constexpr (E != Exits::none) {
    if (n <= theta || static_cast<std::int64_t>(b.size()) <= theta) {
      return too_small<Q>();
    }
  }
  const std::uint32_t* idx = a.indices().data();
  const std::uint64_t* bits = a.bits().data();
  [[maybe_unused]] const std::uint32_t* prefix = a.prefix().data();
  std::int64_t hits = 0;
  for (std::size_t k = 0; k < a.num_entries(); ++k) {
    const std::uint64_t both = bits[k] & b.words[idx[k]];
    if constexpr (Q == Query::gt) {
      hits += static_cast<std::int64_t>(
          extract_word(both, idx[k], b.zone_begin, out + hits));
    } else {
      hits += std::popcount(both);
    }
    if constexpr (E != Exits::none) {
      if (hits + (n - prefix[k + 1]) <= theta) return too_small<Q>();
    }
    if constexpr (Q == Query::size_gt_bool && E == Exits::all) {
      if (hits > theta) return true;
    }
  }
  return verdict<Q>(hits, theta);
}

#define LAZYMC_INSTANTIATE_SCANS(Q, E)                                      \
  template QueryResult<Q> merge_scan<Q, E>(std::span<const VertexId>,       \
                                           std::span<const VertexId>,       \
                                           VertexId*, std::int64_t);        \
  template QueryResult<Q> word_scan<Q, E>(const SparseWordSet&,             \
                                          const BitsetRow&, VertexId*,      \
                                          std::int64_t);
LAZYMC_INSTANTIATE_SCANS(Query::gt, Exits::all)
LAZYMC_INSTANTIATE_SCANS(Query::gt, Exits::none)
LAZYMC_INSTANTIATE_SCANS(Query::size_gt_val, Exits::all)
LAZYMC_INSTANTIATE_SCANS(Query::size_gt_val, Exits::none)
LAZYMC_INSTANTIATE_SCANS(Query::size_gt_bool, Exits::all)
LAZYMC_INSTANTIATE_SCANS(Query::size_gt_bool, Exits::no_second)
LAZYMC_INSTANTIATE_SCANS(Query::size_gt_bool, Exits::none)
#undef LAZYMC_INSTANTIATE_SCANS

std::vector<VertexId> intersect_reference(std::span<const VertexId> a,
                                          std::span<const VertexId> b) {
  std::vector<VertexId> sa(a.begin(), a.end());
  std::vector<VertexId> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  std::vector<VertexId> out;
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace lazymc

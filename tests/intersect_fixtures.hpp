// Input builders shared by the intersection tests: random sorted sets
// inside a zone, and B in the hash-set and bitset-row forms the kernels
// read.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hashset/hopscotch_set.hpp"
#include "intersect/bitset_row.hpp"
#include "support/random.hpp"

namespace lazymc {

/// Owning helper: packs `elements` (ids >= zone_begin) into row words.
/// Not copyable: `row` points into `words`.
struct OwnedRow {
  std::vector<std::uint64_t> words;
  BitsetRow row;

  OwnedRow(const std::vector<VertexId>& elements, VertexId zone_begin,
           VertexId zone_bits) {
    words.assign((static_cast<std::size_t>(zone_bits) + 63) / 64, 0);
    std::uint32_t count = 0;
    for (VertexId v : elements) {
      const VertexId off = v - zone_begin;
      words[off >> 6] |= 1ULL << (off & 63);
      ++count;
    }
    row = BitsetRow{words.data(), zone_begin, zone_bits, count};
  }
  OwnedRow(const OwnedRow&) = delete;
  OwnedRow& operator=(const OwnedRow&) = delete;
};

/// `draws` random ids inside the zone, sorted, duplicates dropped.
inline std::vector<VertexId> random_draws(Rng& rng, std::size_t draws,
                                          VertexId zone_begin,
                                          VertexId zone_bits) {
  std::vector<VertexId> v;
  for (std::size_t i = 0; i < draws; ++i) {
    v.push_back(zone_begin + static_cast<VertexId>(rng.next_below(zone_bits)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// Up to `max_size` distinct random ids inside the zone, ascending.
inline std::vector<VertexId> random_zone_set(Rng& rng, std::size_t max_size,
                                             VertexId zone_begin,
                                             VertexId zone_bits) {
  const std::size_t draws = rng.next_below(max_size + 1);
  return random_draws(rng, draws, zone_begin, zone_bits);
}

inline HopscotchSet make_set(const std::vector<VertexId>& v) {
  HopscotchSet s(v.size());
  for (VertexId x : v) s.insert(x);
  return s;
}

}  // namespace lazymc

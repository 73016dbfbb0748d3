// On-disk layout of the `.lmg` binary graph store.
//
// A `.lmg` file is the zero-parse form of a Graph: the CSR arrays (and
// optionally the degeneracy-order permutation, the coreness array, and
// prebuilt 64-byte-aligned packed bitset zone rows) laid out so that a
// single mmap makes them directly consumable — startup is O(page-fault)
// instead of O(parse), and the word kernels read the rows straight off
// the page cache; every rows section starts on a 64-byte file offset at
// a 64-byte row stride, the same layout as the rows LazyGraph builds.
//
// Layout (all integers little-endian; the reader refuses to open the
// format on a big-endian host rather than byte-swap):
//
//   [FileHeader: 128 bytes]
//   [SectionEntry x header.section_count]
//   [64-byte alignment padding]
//   [section payloads, each starting at its entry's 64-byte-aligned
//    file offset, zero-padded in between]
//
// Sections (sizes fixed by the header's n / m / zone fields):
//
//   kOffsets    u64[n+1]               CSR offsets, offsets[0] == 0,
//                                      non-decreasing, back == 2m
//   kAdjacency  u32[2m]                CSR adjacency, values < n
//   kNewToOrig  u32[n]                 (coreness, degree) order: new->orig
//   kOrigToNew  u32[n]                 inverse permutation
//   kCoreness   u32[n]                 exact coreness by ORIGINAL id
//   kRowCounts  u32[zone_bits]         per-row popcounts
//   kRowWords   u64[zone_bits*stride]  packed zone rows, row i at
//                                      i*row_stride_words, 64-byte aligned
//
// Integrity: the header carries a checksum of its own bytes and one of
// the section table; every section entry carries a checksum of its
// payload.  The checksum is an xxhash-style 64-bit mix — fast enough to
// verify at memory bandwidth on open, strong enough to catch accidental
// corruption (truncation, bit flips, torn writes).  It is not
// cryptographic and does not defend against adversarial files; the
// reader's structural validation (section bounds, offset monotonicity,
// adjacency range) is what keeps a hostile or corrupt file from causing
// out-of-bounds access.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

namespace lazymc::store {

inline constexpr char kMagic[8] = {'L', 'M', 'G', 'R', 'P', 'H', '0', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;

/// Every section payload (and the section table itself) starts on a
/// 64-byte file offset so an mmap'ed row pointer is cache-line aligned.
inline constexpr std::size_t kSectionAlign = 64;

enum HeaderFlags : std::uint32_t {
  /// kNewToOrig / kOrigToNew / kCoreness sections are present.
  kFlagHasOrder = 1u << 0,
  /// kRowCounts / kRowWords sections are present (implies kFlagHasOrder).
  kFlagHasRows = 1u << 1,
};

enum class SectionKind : std::uint32_t {
  kOffsets = 1,
  kAdjacency = 2,
  kNewToOrig = 3,
  kOrigToNew = 4,
  kCoreness = 5,
  kRowCounts = 6,
  kRowWords = 7,
};

struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t flags;
  std::uint64_t num_vertices;
  std::uint64_t num_edges;  // undirected edge count m
  std::uint32_t section_count;
  std::uint32_t degeneracy;
  std::uint32_t zone_begin;        // first relabelled id with a row
  std::uint32_t zone_bits;         // rows and bits per row (zone size)
  std::uint64_t row_stride_words;  // u64 words between consecutive rows
  std::uint64_t table_checksum;    // checksum of the section table bytes
  std::uint64_t reserved[7];
  std::uint64_t header_checksum;  // checksum of this struct's bytes
                                  // [0, offsetof(header_checksum))
};
static_assert(sizeof(FileHeader) == 128, "FileHeader layout drifted");

struct SectionEntry {
  std::uint32_t kind;  // SectionKind
  std::uint32_t reserved;
  std::uint64_t offset;      // from file start, kSectionAlign-aligned
  std::uint64_t size_bytes;  // payload size (excluding padding)
  std::uint64_t checksum;    // checksum of the payload bytes
};
static_assert(sizeof(SectionEntry) == 32, "SectionEntry layout drifted");

/// xxhash-style one-shot 64-bit checksum: 8-byte little-endian lanes
/// folded through a strong multiply-xorshift avalanche, with the length
/// mixed in so truncation to a block boundary still changes the digest.
inline std::uint64_t checksum_bytes(const void* data, std::size_t size) {
  constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
  constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = kPrime3 ^ (static_cast<std::uint64_t>(size) * kPrime1);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t lane;
    std::memcpy(&lane, p + i, 8);
    h ^= lane * kPrime2;
    h = std::rotl(h, 31) * kPrime1;
  }
  std::uint64_t tail = 0;
  for (std::size_t shift = 0; i < size; ++i, shift += 8) {
    tail |= static_cast<std::uint64_t>(p[i]) << shift;
  }
  h ^= tail * kPrime2;
  // splitmix64-style finalizer: full avalanche of the folded state.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace lazymc::store

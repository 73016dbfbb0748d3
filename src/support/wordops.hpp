// Primitives over contiguous arrays of 64-bit words.
//
// The word loops that are not early-exit intersections —
// DynamicBitset::count/count_and/and_with/..., DenseSubgraph row
// complements, the degree heuristic's live-set rows, the gathered AND
// behind induce_from_lazy's rows — are the plain loops below.  The x86-64
// build adds -mpopcnt, so their popcounts compile to hardware POPCNT;
// -march=native also lets the compiler vectorise what it can.
//
// All functions tolerate unaligned pointers and n == 0; `gather_and` is
// the only non-contiguous one (indexed reads of `table`, for the sparse
// word-set x bitset-row row fill).
//
// `compress_or` (parallel bit extract, PEXT) picks its implementation
// once per process from CPUID: the BMI2 instruction when the CPU has it,
// whatever the build flags, else a portable loop over the mask's set
// bits.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace lazymc::wordops {

/// Total set bits in src[0..n).
inline std::size_t popcount(const std::uint64_t* src, std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(src[i]));
  }
  return c;
}

/// Total set bits in (a & b)[0..n).
inline std::size_t popcount_and(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return c;
}

/// dst[i] &= src[i].
inline void and_assign(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

/// dst[i] &= ~src[i].
inline void and_not_assign(std::uint64_t* dst, const std::uint64_t* src,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

/// dst[i] = a[i] & b[i] (dst may alias a or b).
inline void and_into(std::uint64_t* dst, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & b[i];
}

/// dst[i] = ~src[i] (dst may alias src).
inline void not_into(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = ~src[i];
}

/// dst[i] = bits[i] & table[idx[i]] — the gathered AND of the sparse
/// word-set kernels; dst must not alias table.
inline void gather_and(std::uint64_t* dst, const std::uint64_t* bits,
                       const std::uint32_t* idx, const std::uint64_t* table,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = bits[i] & table[idx[i]];
}

/// Parallel bit extract: the bits of `src` at the set positions of `mask`,
/// packed into the low popcount(mask) bits (the semantics of x86 PEXT).
/// Portable loop over the mask's set bits.
std::uint64_t pext_portable(std::uint64_t src, std::uint64_t mask);

/// Whether the running CPU has BMI2 (cached after the first query; always
/// false off x86).
bool cpu_has_bmi2();

#if defined(__x86_64__)
/// The BMI2 PEXT instruction.  Call only when cpu_has_bmi2().
std::uint64_t pext_bmi2(std::uint64_t src, std::uint64_t mask);
#endif

/// For k in [0, n), ORs pext(hit[k], mask[k]) into the bit array `dst` at
/// bit offset offset[k], and returns the total popcount of hit[0..n).
/// With mask[k] the occupied words of a sorted set A and offset[k] the
/// set bits of A before word k (SparseWordSet::prefix()), this maps the
/// hits to their ranks in A.  Requires hit[k] ⊆ mask[k] and dst to hold
/// offset[k] + popcount(mask[k]) bits for every k.
std::size_t compress_or(std::uint64_t* dst, const std::uint64_t* hit,
                        const std::uint64_t* mask,
                        const std::uint32_t* offset, std::size_t n);

}  // namespace lazymc::wordops

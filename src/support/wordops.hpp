// Runtime-dispatched primitives over contiguous arrays of 64-bit words.
//
// Every word loop in the engine that is not an early-exit intersection —
// DynamicBitset::count/count_and/and_with/..., DenseSubgraph row
// complements, the k-VC degree-update rows, the gathered AND behind
// induce_from_lazy's rows — funnels through one of these primitives, so a
// single KernelDispatch decision (support/simd.hpp) upgrades all of them
// to AVX2/AVX-512 at once.  The scalar table is always present; the
// vector tables exist only when their ISA was compiled in
// (wordops_avx2.cpp / wordops_avx512.cpp under the LAZYMC_HAVE_* guards)
// and are reachable only when the CPU supports them.
//
// All functions tolerate unaligned pointers and n == 0; `gather_and` is
// the only non-contiguous one (indexed reads of `table`, for the sparse
// word-set x bitset-row row fill).
//
// `compress_or` (parallel bit extract, PEXT) is not a tier primitive: it
// picks its implementation once per process from CPUID — the BMI2
// instruction when the CPU has it, even in the scalar-tier build, else a
// portable loop over the mask's set bits.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/simd.hpp"

namespace lazymc::wordops {

struct Table {
  simd::Tier tier;
  /// Total set bits in src[0..n).
  std::size_t (*popcount)(const std::uint64_t* src, std::size_t n);
  /// Total set bits in (a & b)[0..n).
  std::size_t (*popcount_and)(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t n);
  /// dst[i] &= src[i].
  void (*and_assign)(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t n);
  /// dst[i] &= ~src[i].
  void (*and_not_assign)(std::uint64_t* dst, const std::uint64_t* src,
                         std::size_t n);
  /// dst[i] = a[i] & b[i] (dst may alias a or b).
  void (*and_into)(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t n);
  /// dst[i] = ~src[i] (dst may alias src).
  void (*not_into)(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t n);
  /// dst[i] = bits[i] & table[idx[i]] — the gathered AND at the heart of
  /// the sparse-word-set kernels; dst must not alias table.
  void (*gather_and)(std::uint64_t* dst, const std::uint64_t* bits,
                     const std::uint32_t* idx, const std::uint64_t* table,
                     std::size_t n);
};

const Table& scalar_table();
/// Null when the respective ISA was not compiled in.
const Table* avx2_table();
const Table* avx512_table();

/// The table for simd::current_tier() (falls back down-tier defensively
/// if a forced tier has no table in this binary).
const Table& active();

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

#include "support/wordops.hpp"

#include <bit>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace lazymc::wordops {
namespace {

/// ORs compressed word `c` into the bit array `dst` at bit offset `off`.
/// The word may straddle two dst words; a word-aligned offset has no high
/// part (and a shift by 64 would be undefined).
inline void or_at(std::uint64_t* dst, std::uint64_t c, std::uint32_t off) {
  const std::uint32_t w = off >> 6;
  const unsigned sh = off & 63;
  dst[w] |= c << sh;
  if (sh != 0) {
    const std::uint64_t high = c >> (64 - sh);
    if (high != 0) dst[w + 1] |= high;
  }
}

std::size_t compress_or_portable(std::uint64_t* dst, const std::uint64_t* hit,
                                 const std::uint64_t* mask,
                                 const std::uint32_t* offset, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (hit[k] == 0) continue;
    total += static_cast<std::size_t>(std::popcount(hit[k]));
    or_at(dst, pext_portable(hit[k], mask[k]), offset[k]);
  }
  return total;
}

#if defined(__x86_64__)
// The same loop as above, spelled out again because _pext_u64 only
// inlines into a function compiled for BMI2.
[[gnu::target("bmi2")]] std::size_t compress_or_bmi2(
    std::uint64_t* dst, const std::uint64_t* hit, const std::uint64_t* mask,
    const std::uint32_t* offset, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (hit[k] == 0) continue;
    total += static_cast<std::size_t>(std::popcount(hit[k]));
    or_at(dst, _pext_u64(hit[k], mask[k]), offset[k]);
  }
  return total;
}
#endif

using CompressFn = std::size_t (*)(std::uint64_t*, const std::uint64_t*,
                                   const std::uint64_t*, const std::uint32_t*,
                                   std::size_t);

CompressFn pick_compress() {
#if defined(__x86_64__)
  if (cpu_has_bmi2()) return compress_or_bmi2;
#endif
  return compress_or_portable;
}

}  // namespace

std::uint64_t pext_portable(std::uint64_t src, std::uint64_t mask) {
  std::uint64_t out = 0;
  for (unsigned k = 0; mask != 0; ++k) {
    out |= ((src >> std::countr_zero(mask)) & 1) << k;
    mask &= mask - 1;
  }
  return out;
}

bool cpu_has_bmi2() {
#if defined(__x86_64__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("bmi2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

#if defined(__x86_64__)
[[gnu::target("bmi2")]] std::uint64_t pext_bmi2(std::uint64_t src,
                                                std::uint64_t mask) {
  return _pext_u64(src, mask);
}
#endif

std::size_t compress_or(std::uint64_t* dst, const std::uint64_t* hit,
                        const std::uint64_t* mask,
                        const std::uint32_t* offset, std::size_t n) {
  static const CompressFn fn = pick_compress();
  return fn(dst, hit, mask, offset, n);
}

}  // namespace lazymc::wordops

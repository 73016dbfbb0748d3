// Cache-line-aligned word storage.
//
// Bitset words, the lazy graph's row block and the scratch word buffers
// all start on a cache-line boundary, so a row never straddles one line
// more than its length needs.  No kernel relies on the alignment for
// correctness; the store loader still checks it on adopted rows
// (LazyGraph::adopt_prebuilt_rows), because that is the layout its
// files promise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace lazymc {

/// Row storage alignment (bytes): one cache line.
inline constexpr std::size_t kRowAlignment = 64;

/// std::vector allocator with a fixed alignment (a power of two >=
/// alignof(T)).
template <typename T, std::size_t Align>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0);

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  // The non-type Align parameter defeats allocator_traits' generic
  // rebind pattern; spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
};

/// 64-bit words on cache-line boundaries: the storage type for bitsets
/// and scratch word buffers.
using AlignedWords =
    std::vector<std::uint64_t, AlignedAllocator<std::uint64_t, kRowAlignment>>;

struct AlignedDelete {
  void operator()(std::uint64_t* p) const noexcept {
    ::operator delete(p, std::align_val_t(kRowAlignment));
  }
};

/// Uninitialized 64-bit words on a cache-line boundary: the lazy graph's
/// row block, whose rows are written whole before they are read, so rows
/// never built are never zeroed or touched.
using AlignedBlock = std::unique_ptr<std::uint64_t[], AlignedDelete>;

inline AlignedBlock allocate_aligned_block(std::size_t words) {
  return AlignedBlock(static_cast<std::uint64_t*>(::operator new(
      words * sizeof(std::uint64_t), std::align_val_t(kRowAlignment))));
}

}  // namespace lazymc

// Strict parsing of the non-negative counts the command-line tools
// accept (`lazymc`, `lazymcd`, `lazymc-convert`): thread and executor
// counts, budgets, retries, thresholds.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>

#include "support/error.hpp"

namespace lazymc {

/// Largest thread or executor count a command line may ask for.  Each
/// one becomes an OS thread, so a mistyped value must be rejected before
/// any pool or broker is built.
inline constexpr std::uint64_t kMaxThreadCount = 1024;

/// Bound for the other counts (budgets, retries, queue limits): no flag
/// has a meaningful value anywhere near it.
inline constexpr std::uint64_t kMaxCount = std::numeric_limits<int>::max();

/// Parses `value` as a decimal integer in [0, max]: digits only, with no
/// sign, spaces or trailing text.  Anything else throws an input Error
/// that names `flag`.
inline std::uint64_t parse_count(const std::string& flag,
                                 const std::string& value,
                                 std::uint64_t max) {
  std::uint64_t n = 0;
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, n);
  if (ec != std::errc() || ptr != last || n > max) {
    throw Error(ErrorKind::kInput, flag + " expects an integer in [0, " +
                                       std::to_string(max) + "], got '" +
                                       value + "'");
  }
  return n;
}

}  // namespace lazymc

// The neighborhood representations a LazyGraph can prefer, and their
// names.  The CLI's --rep flag and the daemon's "rep" field both parse
// through parse_neighborhood_rep, so this is the one place that knows the
// names.
#pragma once

#include <optional>
#include <string_view>

namespace lazymc {

/// Which representation `membership()` builds when a vertex has none yet.
enum class NeighborhoodRep {
  kAuto,    // degree rule; prefer a bitset row when it is cheap (default)
  kHash,    // always a hopscotch set
  kSorted,  // always a sorted array
  kBitset,  // a bitset row whenever possible (zone + budget permitting)
};

/// The accepted representation names, for usage and error messages.
inline constexpr std::string_view kNeighborhoodRepNames =
    "auto|hash|sorted|bitset";

/// The representation called `name`; nullopt for an unknown name.
inline std::optional<NeighborhoodRep> parse_neighborhood_rep(
    std::string_view name) {
  if (name == "auto") return NeighborhoodRep::kAuto;
  if (name == "hash") return NeighborhoodRep::kHash;
  if (name == "sorted") return NeighborhoodRep::kSorted;
  if (name == "bitset") return NeighborhoodRep::kBitset;
  return std::nullopt;
}

}  // namespace lazymc

// Reference exact solvers used by tests and as a sanity baseline.
//
// `max_clique_reference` runs the coloring B&B over the whole graph (fine
// up to a few thousand vertices).  `max_clique_naive` enumerates subsets
// (exponential; n <= ~24) and is deliberately independent of every other
// code path so it can arbitrate disagreements in property tests.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "support/control.hpp"

namespace lazymc::baselines {

/// Exact maximum clique (original ids, sorted).  Intended for graphs small
/// enough to induce densely (n up to a few thousand).  When `control`
/// stops the search, returns the best clique found so far and sets
/// `*timed_out` (if given).
std::vector<VertexId> max_clique_reference(
    const Graph& g, const SolveControl* control = nullptr,
    bool* timed_out = nullptr);

/// Exact maximum clique by subset enumeration; requires n <= 24.
std::vector<VertexId> max_clique_naive(const Graph& g);

}  // namespace lazymc::baselines

// Workloads and instances of the LazyMC benchmark.
//
// Every instance is a `gen:NAME:medium` suite graph, built by
// suite::make_instance, in one or more replicas.  Replica 0 of seed 0 is
// the suite graph itself.  Every other (seed, replica) shuffles the
// graph's vertex ids with a permutation drawn from both.  The input files
// and every id-based tie-break change, while omega and the regime stay
// put.  Fresh generator seeds would not do: they move flickr's 1-thread
// solve anywhere between 0.7 s and 100 s.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace lmcbench {

struct Workload {
  const char* name;
  /// How its instances reach the program: DIMACS text or `.lmg` stores
  /// with prebuilt rows (`lazymc-convert --with-rows`).
  bool binary_store;
  /// Relabelled copies of every instance a run solves.  Tie-breaks move
  /// a workload's solve time by about 5% from seed to seed; two replicas
  /// halve that spread's share of the result where rounds are short
  /// enough to afford them.
  unsigned replicas;
  /// Suite instance names, in suite (Table I) order.
  std::vector<std::string> instances;
};

/// The workload called `name`; throws std::invalid_argument if none is.
const Workload& find_workload(const std::string& name);

/// Builds one replica of suite instance `name` (medium scale) for `seed`.
lazymc::Graph make_instance(const std::string& name, std::uint64_t seed,
                            unsigned replica);

}  // namespace lmcbench

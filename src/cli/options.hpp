// Command-line options for the `lazymc` driver binary.
//
// Usage:
//   lazymc --graph <file|gen:name[:scale]> [--graph ...] [--manifest FILE]
//          [--solver NAME] [--threads N] [--time-limit SECONDS]
//          [--order coreness|peeling]
//          [--rep auto|hash|sorted|bitset] [--bitset-budget-mb N]
//          [--json] [--journal FILE] [--resume] [--retries N]
//          [--fault SPEC]
//
// `--graph` may repeat and `--manifest` names a file with one graph spec
// per line; with more than one instance the driver runs them all in
// sequence and streams one JSON object per instance (batch mode).
//
// Solvers: lazymc (default), domega (alias domega-bs), domega-ls, mcbrb,
// pmc, reference.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "lazygraph/neighborhood_rep.hpp"

namespace lazymc::cli {

enum class Solver {
  kLazyMc,
  kDomegaLinearScan,
  kDomegaBinarySearch,
  kMcBrb,
  kPmc,
  kReference,
};

enum class Order { kCorenessDegree, kPeeling };

struct Options {
  /// One entry per --graph flag (file path or "gen:name[:scale]").
  std::vector<std::string> graph_specs;
  /// File with one graph spec per line ('#' comments, blanks skipped);
  /// resolved by the driver and appended after graph_specs.
  std::string manifest_path;
  Solver solver = Solver::kLazyMc;
  Order order = Order::kCorenessDegree;
  /// Lazy-graph neighborhood representation (lazymc solver only).
  NeighborhoodRep rep = NeighborhoodRep::kAuto;
  std::size_t bitset_budget_mb = 64;  // 0 disables bitset rows
  std::size_t threads = 0;  // 0 = hardware default; <= kMaxThreadCount
  double time_limit_seconds = std::numeric_limits<double>::infinity();
  bool json = false;
  /// Fault-injection specs (one per --fault flag), applied in order after
  /// the LAZYMC_FAULTS environment variable.  Rejected (input error) when
  /// the binary was built without -DLAZYMC_FAULTS=ON.
  std::vector<std::string> fault_specs;
  /// Batch journal: append one line per completed instance; with
  /// --resume, instances already journaled are skipped.
  std::string journal_path;
  bool resume = false;
  /// Retries for transient (resource) per-instance failures, with capped
  /// exponential backoff.
  std::size_t retries = 0;
};

/// Returns the usage string (also printed by --help).
std::string usage();

/// Parses argv.  Throws std::runtime_error with a message on bad input;
/// sets `wants_help` when --help/-h was given (caller prints usage, exits 0).
Options parse_options(int argc, char** argv, bool& wants_help);

/// Human-readable solver name (matches the --solver spelling).
std::string solver_name(Solver solver);

}  // namespace lazymc::cli

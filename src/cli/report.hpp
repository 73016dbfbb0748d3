// Renders a driver run as human-readable text or a single JSON object.
//
// The JSON form exposes the complete LazyMCResult instrumentation (phase
// times, search stats, lazy-graph stats) so scripted sweeps can regenerate
// the paper's figures without parsing tables.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "mc/lazymc.hpp"
#include "support/faultinject.hpp"

namespace lazymc::cli {

struct RunReport {
  /// Daemon request identity, empty for plain CLI runs.  When set,
  /// render_json leads the object with request_id/status so lazymcd's
  /// solve responses are the CLI's --json schema plus request framing.
  /// status is "ok", "timeout", or "interrupted".
  std::string request_id;
  std::string request_status;

  std::string graph;   // LoadedGraph::description
  std::string solver;  // solver_name(...)
  std::size_t threads = 1;
  VertexId num_vertices = 0;
  EdgeId num_edges = 0;
  double load_seconds = 0;
  /// LoadedGraph::load_path: "parse", "mmap", or "gen".
  std::string load_path = "parse";
  double solve_seconds = 0;

  std::vector<VertexId> clique;
  VertexId omega = 0;
  bool timed_out = false;
  /// SIGINT/SIGTERM arrived during the solve: the clique is best-so-far
  /// (anytime result), and the driver exits with the interrupted code.
  bool interrupted = false;

  /// Independent post-solve check of the witness clique against the input
  /// graph (pairwise adjacency + size agreement with omega), run in every
  /// build before the report is rendered: "ok" or "failed".
  std::string verification;

  /// Full instrumentation, present only for --solver lazymc.
  bool has_lazymc = false;
  mc::LazyMCResult lazymc;

  /// Fault-injection counters (faults::snapshot()); non-empty only in
  /// -DLAZYMC_FAULTS=ON builds once any site was interned.
  std::vector<faults::SiteStats> fault_sites;
};

void render_text(const RunReport& report, std::ostream& out);
void render_json(const RunReport& report, std::ostream& out);

}  // namespace lazymc::cli

#include "cli/report.hpp"

#include <iomanip>
#include <ostream>

#include "support/json.hpp"

namespace lazymc::cli {

void render_text(const RunReport& r, std::ostream& out) {
  out << "graph:    " << r.graph << "  (" << r.num_vertices << " vertices, "
      << r.num_edges << " edges; loaded in " << std::fixed
      << std::setprecision(3) << r.load_seconds << "s via " << r.load_path
      << ")\n";
  out << "solver:   " << r.solver << "  (" << r.threads << " thread"
      << (r.threads == 1 ? "" : "s") << ")\n";
  out << "omega:    " << r.omega << "\n";
  out << "clique:  ";
  for (VertexId v : r.clique) out << ' ' << v;
  out << "\n";
  out << "verification: " << r.verification << "\n";
  if (r.timed_out) out << "TIMED OUT (result is a lower bound)\n";
  if (r.interrupted) out << "INTERRUPTED (result is best-so-far)\n";
  out << "time:     " << std::setprecision(3) << r.solve_seconds << "s\n";
  if (!r.fault_sites.empty()) {
    out << "faults:  ";
    for (const auto& site : r.fault_sites) {
      out << ' ' << site.name << "=" << site.fires << "/" << site.hits;
      if (site.armed) out << "*";
    }
    out << "  (fires/hits, * = armed)\n";
  }
  if (!r.has_lazymc) return;

  const auto& lz = r.lazymc;
  // The gap d + 1 - omega is never negative for a computed degeneracy; a
  // store's header degeneracy is outside input nothing validates, so a
  // negative gap is left unprinted.
  const std::int64_t gap = static_cast<std::int64_t>(lz.degeneracy) + 1 -
                           static_cast<std::int64_t>(lz.omega);
  const auto& hd = lz.heuristic_degree;
  out << "\nheuristics: degree omega_d=" << lz.heuristic_degree_omega
      << " (union=" << hd.union_size << " csr-rows=" << hd.csr_rows
      << " regrown=" << hd.regrown << ")"
      << ", coreness omega_h=" << lz.heuristic_coreness_omega
      << "; degeneracy d=" << lz.degeneracy;
  if (gap >= 0) out << " (clique-core gap " << gap << ")";
  out << "\n";
  out << "phases (s): degree-heur=" << lz.phases.degree_heuristic
      << " preprocess=" << lz.phases.preprocessing
      << " must-subgraph=" << lz.phases.must_subgraph
      << " coreness-heur=" << lz.phases.coreness_heuristic
      << " systematic=" << lz.phases.systematic
      << " total=" << lz.phases.total() << "\n";
  const auto& s = lz.search;
  out << "search:   evaluated=" << s.evaluated
      << " pass1=" << s.pass_filter1 << " pass2=" << s.pass_filter2
      << " pass3=" << s.pass_filter3 << " solved-mc=" << s.solved_mc
      << " solved-vc=" << s.solved_vc << " vc-fallbacks=" << s.vc_fallbacks
      << " retired-chunks=" << s.retired_chunks << "\n";
  if (s.time_to_first_solution > 0) {
    out << "anytime:  first-solution=" << s.time_to_first_solution
        << "s improvements=" << s.improvements.size()
        << " (last at " << s.improvements.back().seconds << "s)\n";
  }
  const auto& lg = lz.lazy_graph;
  if (lg.bitset_degraded + s.degraded_wordsets > 0) {
    out << "degraded: bitset-rows=" << lg.bitset_degraded
        << " wordsets=" << s.degraded_wordsets
        << " (recovered allocation failures)\n";
  }
  out << "          mc-nodes=" << s.mc_nodes << " vc-nodes=" << s.vc_nodes
      << " filter=" << s.filter_seconds << "s mc=" << s.mc_seconds
      << "s vc=" << s.vc_seconds << "s\n";
  out << "kernels:  merge=" << s.kernel_merge << " gallop=" << s.kernel_gallop
      << " hash=" << s.kernel_hash
      << " hash-batched=" << s.kernel_hash_batched
      << " bitset-probe=" << s.kernel_bitset_probe
      << " bitset-word=" << s.kernel_bitset_word
      << " csr-scan=" << s.kernel_csr_scan << "\n";
  const auto& g = lz.lazy_graph;
  out << "lazygraph: hash-built=" << g.hash_built
      << " sorted-built=" << g.sorted_built
      << " bitset-built=" << g.bitset_built
      << " rows-prebuilt=" << g.rows_prebuilt
      << " bitset-bytes=" << g.bitset_bytes << " zone=" << g.zone_size
      << "\n           neighbors-kept=" << g.neighbors_kept
      << " neighbors-filtered=" << g.neighbors_filtered << "\n";
}

void render_json(const RunReport& r, std::ostream& out) {
  JsonWriter w(out);
  w.open();
  if (!r.request_id.empty()) w.field("request_id", r.request_id);
  if (!r.request_status.empty()) w.field("status", r.request_status);
  w.field("graph", r.graph);
  w.field("solver", r.solver);
  w.field("threads", r.threads);
  w.field("num_vertices", r.num_vertices);
  w.field("num_edges", r.num_edges);
  w.field("load_seconds", r.load_seconds);
  w.field("load_path", r.load_path);
  w.field("solve_seconds", r.solve_seconds);
  w.field("omega", r.omega);
  w.field("timed_out", r.timed_out);
  w.field("interrupted", r.interrupted);
  w.field("verification", r.verification);
  w.field("clique", r.clique);
  if (r.has_lazymc) {
    const auto& lz = r.lazymc;
    w.field("heuristic_degree_omega", lz.heuristic_degree_omega);
    w.field("heuristic_coreness_omega", lz.heuristic_coreness_omega);
    w.open("heuristic_degree");
    w.field("union_size", lz.heuristic_degree.union_size);
    w.field("csr_rows", lz.heuristic_degree.csr_rows);
    w.field("regrown", lz.heuristic_degree.regrown);
    w.close();
    w.field("degeneracy", lz.degeneracy);
    w.open("phases");
    w.field("degree_heuristic", lz.phases.degree_heuristic);
    w.field("preprocessing", lz.phases.preprocessing);
    w.field("must_subgraph", lz.phases.must_subgraph);
    w.field("coreness_heuristic", lz.phases.coreness_heuristic);
    w.field("systematic", lz.phases.systematic);
    w.field("total", lz.phases.total());
    w.close();
    const auto& s = lz.search;
    w.open("search");
    w.field("evaluated", s.evaluated);
    w.field("pass_filter1", s.pass_filter1);
    w.field("pass_filter2", s.pass_filter2);
    w.field("pass_filter3", s.pass_filter3);
    w.field("solved_mc", s.solved_mc);
    w.field("solved_vc", s.solved_vc);
    w.field("vc_fallbacks", s.vc_fallbacks);
    w.field("retired_chunks", s.retired_chunks);
    w.field("time_to_first_solution", s.time_to_first_solution);
    w.open_array("improvements");
    for (const auto& imp : s.improvements) {
      w.open();
      w.field("size", imp.size);
      w.field("seconds", imp.seconds);
      w.close();
    }
    w.close_array();
    w.field("filter_seconds", s.filter_seconds);
    w.field("mc_seconds", s.mc_seconds);
    w.field("vc_seconds", s.vc_seconds);
    w.field("mc_nodes", s.mc_nodes);
    w.field("vc_nodes", s.vc_nodes);
    w.open("kernels");
#define LAZYMC_FIELD(name) w.field(#name, s.kernel_##name);
    LAZYMC_KERNEL_COUNTERS(LAZYMC_FIELD)
#undef LAZYMC_FIELD
    w.close();
    w.close();
    const auto& g = lz.lazy_graph;
    w.open("lazy_graph");
    w.field("hash_built", g.hash_built);
    w.field("sorted_built", g.sorted_built);
    w.field("bitset_built", g.bitset_built);
    w.field("rows_prebuilt", g.rows_prebuilt);
    w.field("bitset_bytes", g.bitset_bytes);
    w.field("zone_size", g.zone_size);
    w.field("neighbors_kept", g.neighbors_kept);
    w.field("neighbors_filtered", g.neighbors_filtered);
    w.close();
    // Graceful-degradation counters (failure model): recovered
    // allocation failures, by fallback path.
    w.open("degradations");
    w.field("bitset_rows", g.bitset_degraded);
    w.field("wordsets", s.degraded_wordsets);
    w.close();
  }
  if (!r.fault_sites.empty()) {
    w.open("fault_injection");
    for (const auto& site : r.fault_sites) {
      w.open(site.name);
      w.field("hits", site.hits);
      w.field("fires", site.fires);
      w.field("armed", site.armed);
      w.close();
    }
    w.close();
  }
  w.close();
  out << "\n";
}

}  // namespace lazymc::cli

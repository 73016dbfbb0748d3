// lazymc-convert — builds `.lmg` binary graph stores.
//
//   lazymc-convert INPUT OUTPUT [--with-rows] [--rows-omega N] [--verify]
//
// INPUT is anything the driver's --graph accepts (DIMACS, edge list, an
// existing .lmg, or gen:NAME[:SCALE]); OUTPUT is the store to write.  The
// converter always computes and serializes the exact k-core decomposition
// and the (coreness, degree) order, so a later `lazymc --graph OUTPUT`
// mmaps the graph zero-parse AND skips the preprocessing phase.
//
// --with-rows additionally packs a bitset zone row for every vertex whose
// coreness >= the rows threshold.  The threshold defaults to the clique
// size the degree-based heuristic finds (the incumbent a solve would fix
// its zone with); --rows-omega N pins it, e.g. `--rows-omega 1` stores a
// row for every non-isolated-coreness vertex, maximizing the chance a
// future solve can adopt the rows regardless of its own incumbent.
//
// --verify reopens the written file and structurally compares every
// section against the source graph (CSR round-trip, order, coreness,
// row bits) — a failed verification deletes nothing but exits non-zero.
//
// Exit codes match the driver: 0 ok, 3 input error, 4 internal error.
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "cli/graph_source.hpp"
#include "graph/io.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "mc/heuristic.hpp"
#include "mc/incumbent.hpp"
#include "store/binary_graph.hpp"
#include "support/count_arg.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"

namespace lazymc::cli {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitInputError = 3;
constexpr int kExitInternalError = 4;

const char* kUsage =
    "usage: lazymc-convert INPUT OUTPUT [options]\n"
    "\n"
    "Converts a graph to the .lmg binary store: mmap-able CSR plus the\n"
    "precomputed (coreness, degree) order and exact coreness.\n"
    "\n"
    "  INPUT            graph spec (file or gen:NAME[:SCALE])\n"
    "  OUTPUT           .lmg file to write\n"
    "  --with-rows      also pack bitset zone rows (see --rows-omega)\n"
    "  --rows-omega N   zone threshold for --with-rows; rows cover every\n"
    "                   vertex with coreness >= N (default: the omega the\n"
    "                   degree heuristic finds)\n"
    "  --threads N      worker threads, at most 1024 (0 = hardware\n"
    "                   concurrency)\n"
    "  --verify         reopen the output and compare it section by\n"
    "                   section against the source graph\n"
    "  --emit FORMAT    output format: lmg (default), dimacs, or edges —\n"
    "                   the text formats materialize generator specs for\n"
    "                   corpus tooling (tools/corpus.sh)\n"
    "  --help           this text\n";

[[noreturn]] void verify_fail(const std::string& what) {
  throw Error(ErrorKind::kInternal, "verification failed: " + what);
}

/// Structural round-trip check: everything the store serialized must
/// reproduce the source exactly.
void verify_store(const std::string& path, const Graph& g,
                  const kcore::VertexOrder& order,
                  const std::vector<VertexId>& coreness,
                  VertexId degeneracy) {
  auto view = store::BinaryGraphView::open(path);
  const Graph h = view->graph();
  if (h.num_vertices() != g.num_vertices() || h.num_edges() != g.num_edges()) {
    verify_fail("vertex/edge counts differ");
  }
  const auto go = g.offsets(), ho = h.offsets();
  if (!std::equal(go.begin(), go.end(), ho.begin(), ho.end())) {
    verify_fail("CSR offsets differ");
  }
  const auto ga = g.adjacency(), ha = h.adjacency();
  if (!std::equal(ga.begin(), ga.end(), ha.begin(), ha.end())) {
    verify_fail("CSR adjacency differs");
  }
  if (!view->has_order()) verify_fail("order sections missing");
  if (view->order().new_to_orig != order.new_to_orig ||
      view->order().orig_to_new != order.orig_to_new) {
    verify_fail("stored order differs");
  }
  if (view->coreness() != coreness) verify_fail("stored coreness differs");
  if (view->degeneracy() != degeneracy) verify_fail("stored degeneracy differs");
  if (view->has_rows()) {
    const PrebuiltRows rows = view->rows();
    const VertexId zb = rows.zone_begin;
    const std::size_t words =
        (static_cast<std::size_t>(rows.zone_bits) + 63) / 64;
    std::vector<std::uint64_t> expected(words);
    for (VertexId v = zb; v < g.num_vertices(); ++v) {
      std::fill(expected.begin(), expected.end(), 0);
      std::uint32_t count = 0;
      for (VertexId u_orig : g.neighbors(order.new_to_orig[v])) {
        const VertexId u = order.orig_to_new[u_orig];
        if (u < zb) continue;
        expected[(u - zb) >> 6] |= 1ULL << ((u - zb) & 63);
        ++count;
      }
      const std::uint64_t* row =
          rows.words + static_cast<std::size_t>(v - zb) * rows.stride_words;
      if (!std::equal(expected.begin(), expected.end(), row) ||
          rows.counts[v - zb] != count) {
        verify_fail("row bits differ at relabelled vertex " +
                    std::to_string(v));
      }
    }
  }
}

int run(int argc, char** argv) {
  std::string input, output, emit = "lmg";
  bool with_rows = false, verify = false, have_rows_omega = false;
  VertexId rows_omega = 0;
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        throw Error(ErrorKind::kInput,
                    std::string(flag) + " requires an argument");
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return kExitOk;
    } else if (arg == "--with-rows") {
      with_rows = true;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--rows-omega") {
      rows_omega = static_cast<VertexId>(
          parse_count(arg, next("--rows-omega"),
                      std::numeric_limits<VertexId>::max()));
      have_rows_omega = true;
      with_rows = true;
    } else if (arg == "--threads") {
      threads = parse_count(arg, next("--threads"), kMaxThreadCount);
    } else if (arg == "--emit") {
      emit = next("--emit");
      if (emit != "lmg" && emit != "dimacs" && emit != "edges") {
        throw Error(ErrorKind::kInput,
                    "--emit must be lmg, dimacs, or edges (got '" + emit +
                        "')");
      }
    } else if (!arg.empty() && arg[0] == '-') {
      throw Error(ErrorKind::kInput, "unknown flag '" + arg + "'");
    } else if (input.empty()) {
      input = arg;
    } else if (output.empty()) {
      output = arg;
    } else {
      throw Error(ErrorKind::kInput, "unexpected argument '" + arg + "'");
    }
  }
  if (input.empty() || output.empty()) {
    std::cerr << kUsage;
    return kExitInputError;
  }

  set_num_threads(threads);

  WallTimer timer;
  LoadedGraph loaded = load_graph(input);
  const Graph& g = loaded.graph;
  const double load_seconds = timer.lap();

  if (emit != "lmg") {
    if (with_rows || verify) {
      throw Error(ErrorKind::kInput,
                  "--with-rows / --verify only apply to --emit lmg");
    }
    if (emit == "dimacs") {
      io::write_dimacs_file(g, output);
    } else {
      io::write_edge_list_file(g, output);
    }
    std::cout << "converted " << loaded.description << " -> " << output
              << " (" << emit << ")\n"
              << "  " << g.num_vertices() << " vertices, " << g.num_edges()
              << " edges; load " << load_seconds << "s, write " << timer.lap()
              << "s\n";
    return kExitOk;
  }

  // The exact decomposition is valid for any future incumbent, and the
  // sequential peel gives a deterministic order + degeneracy.
  kcore::CoreDecomposition core = kcore::coreness(g);
  kcore::VertexOrder order =
      kcore::order_by_coreness_degree(g, core.coreness);

  store::LmgBuildData data;
  data.order = &order;
  data.coreness = &core.coreness;
  data.degeneracy = core.degeneracy;
  data.with_rows = with_rows;
  if (with_rows) {
    if (!have_rows_omega && g.num_vertices() > 0) {
      // Default threshold: the incumbent a solve's zone would be fixed
      // with — what the degree-based heuristic finds on this graph.
      Incumbent incumbent;
      mc::HeuristicOptions h;
      mc::degree_based_heuristic(g, incumbent, h);
      rows_omega = incumbent.size();
    }
    data.rows_omega = rows_omega;
  }
  const double preprocess_seconds = timer.lap();

  store::write_lmg(g, data, output);
  const double write_seconds = timer.lap();

  if (verify) {
    verify_store(output, g, order, core.coreness, core.degeneracy);
  }

  auto view = store::BinaryGraphView::open(output);
  std::cout << "converted " << loaded.description << " -> " << output << "\n"
            << "  " << g.num_vertices() << " vertices, " << g.num_edges()
            << " edges, " << view->file_bytes() << " bytes\n"
            << "  degeneracy " << view->degeneracy() << ", rows "
            << (view->has_rows()
                    ? std::to_string(view->zone_size()) + " (zone begins at " +
                          std::to_string(view->zone_begin()) + ", omega >= " +
                          std::to_string(rows_omega) + ")"
                    : std::string("none"))
            << (verify ? ", verified" : "") << "\n"
            << "  load " << load_seconds << "s, preprocess "
            << preprocess_seconds << "s, write " << write_seconds << "s\n";
  return kExitOk;
}

int safe_main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "lazymc-convert: %s\n", e.what());
    return e.kind() == ErrorKind::kInput ? kExitInputError
                                         : kExitInternalError;
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "lazymc-convert: out of memory\n");
    return kExitInternalError;
  } catch (const std::exception& e) {
    // Loader errors surface as std::runtime_error: unreadable or
    // malformed input.
    std::fprintf(stderr, "lazymc-convert: %s\n", e.what());
    return kExitInputError;
  }
}

}  // namespace
}  // namespace lazymc::cli

int main(int argc, char** argv) {
  return lazymc::cli::safe_main(argc, argv);
}

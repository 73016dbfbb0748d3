#include "cli/options.hpp"

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "support/count_arg.hpp"
#include "support/error.hpp"

namespace lazymc::cli {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw Error(ErrorKind::kInput, what + "\n\n" + usage());
}

Solver parse_solver(const std::string& name) {
  if (name == "lazymc") return Solver::kLazyMc;
  if (name == "domega" || name == "domega-bs")
    return Solver::kDomegaBinarySearch;
  if (name == "domega-ls") return Solver::kDomegaLinearScan;
  if (name == "mcbrb") return Solver::kMcBrb;
  if (name == "pmc") return Solver::kPmc;
  if (name == "reference") return Solver::kReference;
  fail("unknown solver '" + name + "'");
}

Order parse_order(const std::string& name) {
  if (name == "coreness") return Order::kCorenessDegree;
  if (name == "peeling") return Order::kPeeling;
  fail("unknown vertex order '" + name + "' (expected coreness|peeling)");
}

NeighborhoodRep parse_rep(const std::string& name) {
  if (auto rep = parse_neighborhood_rep(name)) return *rep;
  fail("unknown representation '" + name + "' (expected " +
       std::string(kNeighborhoodRepNames) + ")");
}

}  // namespace

std::string usage() {
  return
      "usage: lazymc --graph <file|gen:name[:scale]> [options]\n"
      "\n"
      "Loads a graph and computes its maximum clique.  --graph may\n"
      "repeat, and --manifest adds one spec per line from a file; with\n"
      "more than one instance the driver runs them all and streams one\n"
      "JSON object per instance (batch mode, for corpus-wide sweeps).\n"
      "\n"
      "graph sources:\n"
      "  <file>               DIMACS .clq/.col or whitespace edge list\n"
      "                       (auto-detected by content)\n"
      "  gen:NAME[:SCALE]     named instance from the synthetic suite;\n"
      "                       SCALE is tiny|small|medium (default small)\n"
      "\n"
      "options:\n"
      "  --manifest FILE      file of graph specs, one per line ('#'\n"
      "                       starts a comment, blank lines skipped)\n"
      "  --solver NAME        lazymc (default), domega | domega-bs,\n"
      "                       domega-ls, mcbrb, pmc, reference\n"
      "  --threads N          worker threads, at most 1024 (default:\n"
      "                       hardware)\n"
      "  --time-limit SECONDS wall-clock limit, honoured by every solver\n"
      "                       (default: none; see exit code 2)\n"
      "  --order KIND         lazymc vertex order: coreness (default) |\n"
      "                       peeling; other solvers use their own order\n"
      "  --rep KIND           lazymc neighborhood representation built on\n"
      "                       first use: auto (default; degree rule +\n"
      "                       bitset rows where cheap) | hash | sorted |\n"
      "                       bitset.  hash/sorted disable zone rows\n"
      "                       entirely\n"
      "  --bitset-budget-mb N memory budget for bitset rows\n"
      "                       (default 64; 0 disables the representation)\n"
      "  --json               emit the result as JSON on stdout\n"
      "                       (implied by batch mode)\n"
      "  --journal FILE       batch mode: append one JSON line per\n"
      "                       completed instance (crash-safe results log)\n"
      "  --resume             batch mode: skip instances already recorded\n"
      "                       in the --journal file (requires --journal)\n"
      "  --retries N          retry an instance up to N times after a\n"
      "                       transient (resource) failure, with capped\n"
      "                       exponential backoff (default 0)\n"
      "  --fault SPEC         arm fault-injection sites (repeatable);\n"
      "                       SPEC is site=nth:N | site=every:K |\n"
      "                       site=prob:P[:seed], comma-separable.  Also\n"
      "                       read from the LAZYMC_FAULTS environment\n"
      "                       variable.  Requires a -DLAZYMC_FAULTS=ON\n"
      "                       build; see src/support/faultinject.hpp\n"
      "  --help, -h           print this message\n"
      "\n"
      "exit codes:\n"
      "  0  solved (batch: every instance solved or timed out)\n"
      "  2  the --time-limit expired (single instance; the report still\n"
      "     carries the best clique found and timed_out: true)\n"
      "  3  input error (bad flags, unreadable/ill-formed graph or\n"
      "     manifest, bad fault spec)\n"
      "  4  internal or resource error (unexpected exception, failed\n"
      "     witness verification, out of memory after retries)\n"
      "  5  batch completed but some instances failed (each failure is\n"
      "     reported as a JSON error object with error_kind/attempts)\n"
      "  6  interrupted by SIGINT/SIGTERM (the in-flight instance still\n"
      "     emits best-so-far JSON with interrupted: true)\n";
}

std::string solver_name(Solver solver) {
  switch (solver) {
    case Solver::kLazyMc: return "lazymc";
    case Solver::kDomegaLinearScan: return "domega-ls";
    case Solver::kDomegaBinarySearch: return "domega-bs";
    case Solver::kMcBrb: return "mcbrb";
    case Solver::kPmc: return "pmc";
    case Solver::kReference: return "reference";
  }
  return "?";
}

Options parse_options(int argc, char** argv, bool& wants_help) {
  Options options;
  wants_help = false;
  auto value = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) fail("missing value for " + flag);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      wants_help = true;
      return options;
    } else if (arg == "--graph") {
      options.graph_specs.push_back(value(i, arg));
    } else if (arg == "--manifest") {
      options.manifest_path = value(i, arg);
    } else if (arg == "--solver") {
      options.solver = parse_solver(value(i, arg));
    } else if (arg == "--order") {
      options.order = parse_order(value(i, arg));
    } else if (arg == "--rep") {
      options.rep = parse_rep(value(i, arg));
    } else if (arg == "--bitset-budget-mb") {
      options.bitset_budget_mb = parse_count(arg, value(i, arg), kMaxCount);
    } else if (arg == "--threads") {
      options.threads = parse_count(arg, value(i, arg), kMaxThreadCount);
    } else if (arg == "--time-limit") {
      const std::string v = value(i, arg);
      char* end = nullptr;
      double s = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || s <= 0) {
        fail("--time-limit expects a positive number of seconds, got '" + v +
             "'");
      }
      options.time_limit_seconds = s;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--journal") {
      options.journal_path = value(i, arg);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--retries") {
      options.retries = parse_count(arg, value(i, arg), kMaxCount);
    } else if (arg == "--fault") {
      options.fault_specs.push_back(value(i, arg));
    } else {
      fail("unknown argument '" + arg + "'");
    }
  }
  if (options.graph_specs.empty() && options.manifest_path.empty()) {
    fail("--graph or --manifest is required");
  }
  if (options.resume && options.journal_path.empty()) {
    fail("--resume requires --journal (there is nothing to resume from)");
  }
  return options;
}

}  // namespace lazymc::cli

// lazymc — command-line driver.
//
// Loads a graph (DIMACS, edge list, or a named synthetic-suite instance),
// runs the chosen maximum-clique solver, and prints the result
// with full instrumentation as text or JSON.  See cli/options.hpp for the
// flag reference; `lazymc --help` prints it.
//
// Failure model (see README "Failure model & graceful degradation"):
//  * the --time-limit clock starts before graph load/parse, so it bounds
//    end-to-end wall time per instance;
//  * SIGINT/SIGTERM cancel the in-flight solve through the cooperative
//    SolveControl — the report still carries the best-so-far clique with
//    "interrupted": true, and the process exits with a distinct code;
//  * batch sweeps journal each completed instance (--journal) and can
//    skip journaled work on a re-run (--resume); transient per-instance
//    failures retry with capped exponential backoff (--retries);
//  * every failure is classified (ErrorKind) into the exit-code contract
//    documented in usage() and, in batch mode, into machine-readable
//    error objects (error_kind / attempts / errno).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/domega.hpp"
#include "baselines/mcbrb.hpp"
#include "baselines/pmc.hpp"
#include "baselines/reference.hpp"
#include "cli/graph_source.hpp"
#include "cli/journal.hpp"
#include "cli/options.hpp"
#include "cli/report.hpp"
#include "graph/graph.hpp"
#include "mc/lazymc.hpp"
#include "support/control.hpp"
#include "support/error.hpp"
#include "support/faultinject.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace lazymc::cli {
namespace {

// Exit-code contract (documented in usage() and README; asserted by
// cli_smoke).  1 is deliberately unused: it is what a crash through the
// default terminate path or a shell-level failure tends to produce, so
// the codes the driver *chooses* stay distinguishable from it.
constexpr int kExitSolved = 0;
constexpr int kExitTimedOut = 2;
constexpr int kExitInputError = 3;
constexpr int kExitInternalError = 4;
constexpr int kExitBatchFailures = 5;
constexpr int kExitInterrupted = 6;

int exit_code_for(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kInput: return kExitInputError;
    case ErrorKind::kInterrupted: return kExitInterrupted;
    case ErrorKind::kResource:
    case ErrorKind::kInternal:
    // kOverloaded is a daemon-side rejection; the batch driver never
    // produces it, but a classified Error must still map somewhere sane.
    case ErrorKind::kOverloaded: return kExitInternalError;
  }
  return kExitInternalError;
}

// The handler performs one relaxed atomic store (async-signal-safe); all
// solvers observe the flag through SolveControl's cooperative checks, so
// the in-flight solve unwinds with its best-so-far incumbent intact.
void on_signal(int) { interrupt::request(); }

void install_signal_handlers() {
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
}

/// Rethrows the in-flight exception and returns it classified.  Anything
/// already structured passes through; allocation failure is transient
/// (resource); everything else defaults to `fallback`.
Error classify_current_exception(ErrorKind fallback) {
  try {
    throw;
  } catch (const Error& e) {
    return e;
  } catch (const std::bad_alloc&) {
    return Error(ErrorKind::kResource, "out of memory");
  } catch (const std::exception& e) {
    return Error(fallback, e.what());
  } catch (...) {
    return Error(ErrorKind::kInternal, "unknown exception");
  }
}

void solve_into(const Options& options, RunReport& report,
                const LoadedGraph& loaded) {
  const Graph& g = loaded.graph;
  switch (options.solver) {
    case Solver::kLazyMc: {
      mc::LazyMCConfig config;
      // Binary-store loads ship the preprocessing (order, coreness,
      // prebuilt rows); hand it to the solve so those phases collapse.
      mc::PrebuiltGraph prebuilt;
      if (loaded.store && loaded.store->has_order()) {
        prebuilt.order = &loaded.store->order();
        prebuilt.coreness = &loaded.store->coreness();
        prebuilt.degeneracy = loaded.store->degeneracy();
        prebuilt.rows = loaded.store->rows();
        config.prebuilt = &prebuilt;
      }
      config.vertex_order = options.order == Order::kPeeling
                                ? mc::VertexOrderKind::kPeeling
                                : mc::VertexOrderKind::kCorenessDegree;
      config.neighborhood_rep = options.rep;
      config.bitset_budget_bytes = options.bitset_budget_mb << 20;
      config.time_limit_seconds = options.time_limit_seconds;
      report.lazymc = mc::lazy_mc(g, config);
      report.has_lazymc = true;
      report.clique = report.lazymc.clique;
      report.omega = report.lazymc.omega;
      report.timed_out = report.lazymc.timed_out;
      return;
    }
    case Solver::kDomegaLinearScan:
    case Solver::kDomegaBinarySearch: {
      baselines::DomegaOptions domega;
      domega.time_limit_seconds = options.time_limit_seconds;
      auto mode = options.solver == Solver::kDomegaLinearScan
                      ? baselines::DomegaMode::kLinearScan
                      : baselines::DomegaMode::kBinarySearch;
      auto result = baselines::domega_solve(g, mode, domega);
      report.clique = std::move(result.clique);
      report.omega = result.omega;
      report.timed_out = result.timed_out;
      return;
    }
    case Solver::kMcBrb: {
      baselines::McBrbOptions mcbrb;
      mcbrb.time_limit_seconds = options.time_limit_seconds;
      auto result = baselines::mcbrb_solve(g, mcbrb);
      report.clique = std::move(result.clique);
      report.omega = result.omega;
      report.timed_out = result.timed_out;
      return;
    }
    case Solver::kPmc: {
      baselines::PmcOptions pmc;
      pmc.time_limit_seconds = options.time_limit_seconds;
      auto result = baselines::pmc_solve(g, pmc);
      report.clique = std::move(result.clique);
      report.omega = result.omega;
      report.timed_out = result.timed_out;
      return;
    }
    case Solver::kReference: {
      SolveControl control(options.time_limit_seconds);
      report.clique =
          baselines::max_clique_reference(g, &control, &report.timed_out);
      report.omega = static_cast<VertexId>(report.clique.size());
      return;
    }
  }
}

/// What one instance attempt produced, for exit codes and error objects.
struct InstanceOutcome {
  enum class Status { kSolved, kTimedOut, kInterrupted, kFailed };
  Status status = Status::kSolved;
  VertexId omega = 0;
  // Failure details (Status::kFailed only).
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  int sys_errno = 0;
  // Attempts actually made (> 1 after transient-failure retries).
  int attempts = 1;
};

/// Loads and solves one instance, writing the report to stdout.  Throws a
/// classified Error on failure.
InstanceOutcome solve_once(const Options& options, const std::string& spec,
                           bool json) {
  // The end-to-end clock starts *before* load/parse, so --time-limit
  // bounds wall time per instance, not just solver time: whatever the
  // load consumed is subtracted from the solver's budget below.
  WallTimer end_to_end;
  LoadedGraph loaded;
  try {
    loaded = load_graph(spec);
  } catch (const Error&) {
    throw;
  } catch (const std::bad_alloc&) {
    throw Error(ErrorKind::kResource, "out of memory loading '" + spec + "'");
  } catch (const std::exception& e) {
    // Unreadable or ill-formed input; errno is the OS detail when the
    // failure was an open/read (0 otherwise).
    throw Error(ErrorKind::kInput, e.what(), errno);
  }

  RunReport report;
  report.graph = loaded.description;
  report.solver = solver_name(options.solver);
  report.threads = num_threads();
  report.num_vertices = loaded.graph.num_vertices();
  report.num_edges = loaded.graph.num_edges();
  report.load_seconds = loaded.load_seconds;
  report.load_path = loaded.load_path;

  Options budgeted = options;
  if (std::isfinite(options.time_limit_seconds)) {
    // Clamp tiny-positive: a load that already exhausted the limit makes
    // the solver cancel at its first cooperative check and report
    // best-so-far (timed out), rather than dying on a zero/negative limit.
    budgeted.time_limit_seconds =
        std::max(options.time_limit_seconds - end_to_end.elapsed(), 1e-9);
  }

  WallTimer timer;
  solve_into(budgeted, report, loaded);
  report.solve_seconds = timer.elapsed();

  // The solvers share one cancellation path for the clock and the signal;
  // the flag says which it was.  An interrupt takes precedence (the limit
  // did not expire — the user did).
  report.interrupted = interrupt::requested();
  if (report.interrupted) report.timed_out = false;

  // Independent re-check of the witness before anything is printed, in
  // every build (not just checked ones): the clique must be pairwise
  // adjacent in the *input* graph and match the omega we are about to
  // report.
  const bool ok =
      report.clique.size() == static_cast<std::size_t>(report.omega) &&
      is_clique(loaded.graph, report.clique);
  report.verification = ok ? "ok" : "failed";

  report.fault_sites = faults::snapshot();

  if (json) {
    render_json(report, std::cout);
  } else {
    render_text(report, std::cout);
  }
  if (report.verification == "failed") {
    throw Error(ErrorKind::kInternal,
                "result verification failed: the reported clique is not a "
                "clique of the input graph (see the printed report)");
  }

  InstanceOutcome out;
  out.omega = report.omega;
  out.status = report.interrupted ? InstanceOutcome::Status::kInterrupted
               : report.timed_out ? InstanceOutcome::Status::kTimedOut
                                  : InstanceOutcome::Status::kSolved;
  return out;
}

/// solve_once plus the retry policy: transient (resource) failures are
/// re-attempted up to --retries times with capped exponential backoff;
/// everything else fails fast.  Never throws — failures come back as
/// Status::kFailed outcomes carrying their classification.
InstanceOutcome run_instance(const Options& options, const std::string& spec,
                             bool json) {
  const std::size_t max_attempts = options.retries + 1;
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      InstanceOutcome out = solve_once(options, spec, json);
      out.attempts = static_cast<int>(attempt);
      return out;
    } catch (...) {
      const Error err = classify_current_exception(ErrorKind::kInternal);
      if (err.transient() && attempt < max_attempts &&
          !interrupt::requested()) {
        // Capped exponential backoff: 50ms doubling to at most 1s, with
        // +/-25% deterministic jitter so a manifest sweep (or a fleet of
        // daemon clients) that hit one shared transient failure does not
        // retry in lockstep.  Seeded from splitmix64 over the spec and
        // attempt — no global RNG state, and re-runs replay exactly.
        const std::uint64_t base = std::min<std::uint64_t>(
            std::uint64_t{50} << (attempt - 1), 1000);
        std::uint64_t seed = std::hash<std::string>{}(spec) ^
                             (std::uint64_t{0x9e3779b9} * attempt);
        const std::uint64_t rand = splitmix64(seed);
        // Map to [0.75, 1.25): jitter = 0.75 + (rand / 2^64) * 0.5.
        const double factor =
            0.75 + static_cast<double>(rand >> 11) * 0x1.0p-53 * 0.5;
        const auto delay = std::chrono::milliseconds(
            static_cast<std::uint64_t>(static_cast<double>(base) * factor));
        std::this_thread::sleep_for(delay);
        continue;
      }
      InstanceOutcome out;
      out.status = InstanceOutcome::Status::kFailed;
      out.kind = err.kind();
      out.message = err.what();
      out.sys_errno = err.sys_errno();
      out.attempts = static_cast<int>(attempt);
      return out;
    }
  }
}

/// Machine-readable failure record for batch streams (and --json single
/// runs): downstream harnesses branch on error_kind/attempts without
/// parsing prose.
void emit_error_object(const std::string& spec, const InstanceOutcome& out) {
  JsonWriter w(std::cout);
  w.open();
  w.field("graph", spec);
  w.field("error", out.message);
  w.field("error_kind", error_kind_name(out.kind));
  w.field("attempts", out.attempts);
  if (out.sys_errno != 0) w.field("errno", out.sys_errno);
  w.close();
  std::cout << "\n";
}

int run(int argc, char** argv) {
  bool wants_help = false;
  Options options = parse_options(argc, argv, wants_help);
  if (wants_help) {
    std::cout << usage();
    return kExitSolved;
  }

  install_signal_handlers();
  // Fault plans: environment first, then --fault flags in order (both
  // reject non-fault builds and malformed specs as input errors).
  faults::configure_from_env();
  for (const std::string& spec : options.fault_specs) {
    faults::configure(spec);
  }

  set_num_threads(options.threads);

  std::vector<std::string> specs = options.graph_specs;
  if (!options.manifest_path.empty()) {
    try {
      auto manifest = read_manifest(options.manifest_path);
      specs.insert(specs.end(), manifest.begin(), manifest.end());
    } catch (const Error&) {
      throw;
    } catch (const std::exception& e) {
      throw Error(ErrorKind::kInput, e.what(), errno);
    }
    if (specs.empty()) {
      throw Error(ErrorKind::kInput, "manifest '" + options.manifest_path +
                                         "' names no instances");
    }
  }

  // A journal implies batch semantics even for a single instance (a
  // one-line manifest must still be resumable).
  const bool batch = specs.size() > 1 || !options.journal_path.empty();

  if (!batch) {
    InstanceOutcome out = run_instance(options, specs[0], options.json);
    switch (out.status) {
      case InstanceOutcome::Status::kSolved: return kExitSolved;
      case InstanceOutcome::Status::kTimedOut: return kExitTimedOut;
      case InstanceOutcome::Status::kInterrupted: return kExitInterrupted;
      case InstanceOutcome::Status::kFailed: break;
    }
    if (options.json) {
      emit_error_object(specs[0], out);
    }
    std::fprintf(stderr, "lazymc: %s\n", out.message.c_str());
    return exit_code_for(out.kind);
  }

  // Batch mode: stream one JSON object per instance (newline-delimited)
  // so a sweep over a whole corpus is one process and one parseable
  // stream.  A failing instance emits an error object and the sweep
  // continues; completed instances (solved or timed out) are journaled so
  // --resume can skip them; an interrupt stops the sweep after the
  // in-flight instance reports best-so-far.
  Journal journal(options.journal_path);
  std::set<std::string> done;
  if (options.resume) done = journal.completed();
  int failures = 0;
  bool interrupted = false;
  for (const std::string& spec : specs) {
    if (interrupt::requested()) {
      interrupted = true;
      break;
    }
    if (options.resume && done.count(spec) > 0) continue;
    InstanceOutcome out = run_instance(options, spec, /*json=*/true);
    switch (out.status) {
      case InstanceOutcome::Status::kSolved:
        journal.record(spec, "ok", out.omega);
        break;
      case InstanceOutcome::Status::kTimedOut:
        // Timed out counts as completed: re-running it under the same
        // limit reproduces the timeout, so --resume skips it too.
        journal.record(spec, "timeout", out.omega);
        break;
      case InstanceOutcome::Status::kInterrupted:
        // Not journaled: a resumed sweep re-runs the interrupted solve.
        interrupted = true;
        break;
      case InstanceOutcome::Status::kFailed:
        // Not journaled either — failures are what --resume retries.
        emit_error_object(spec, out);
        ++failures;
        break;
    }
    std::cout.flush();
    if (interrupted) break;
  }
  if (interrupted || interrupt::requested()) return kExitInterrupted;
  return failures == 0 ? kExitSolved : kExitBatchFailures;
}

int safe_main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "lazymc: %s\n", e.what());
    return exit_code_for(e.kind());
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "lazymc: out of memory\n");
    return kExitInternalError;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lazymc: %s\n", e.what());
    return kExitInternalError;
  }
}

}  // namespace
}  // namespace lazymc::cli

int main(int argc, char** argv) {
  return lazymc::cli::safe_main(argc, argv);
}

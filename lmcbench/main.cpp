// lmcbench — the LazyMC benchmark program (see lmcbench/README.md).
//
//   lmcbench gen --workload W --seed N --out DIR
//       Writes every replica of the workload's instances for seed N as
//       DIR/NAME.rR: DIMACS text, or for a binary-store workload the
//       `.lmg` store that `lazymc-convert --with-rows --verify` makes of
//       that text.
//
//   lmcbench run --workload W --inputs DIR --expect NAME=OMEGA,...
//                --seconds S --trace 0|1 [--trace-out FILE]
//       --trace 0: times the loads (setup_s) and mc::lazy_mc at 1 and 4
//       threads (solve_s_t1, solve_s_t4) in rounds until S seconds have
//       passed.  A solve time is the sum over inputs of each input's
//       fastest solve over rounds; setup_s is the fastest load pass.
//       Also reports peak RSS.
//       --trace 1: per round and thread count, solves every instance once
//       with lazy_mc and once through the same public calls lazy_mc makes,
//       with a span around each call; reports per-layer medians, checks
//       the decomposed pipeline against lazy_mc, and writes the spans as
//       Chrome trace-event JSON to FILE.
//
// Every solve is checked: omega against the expected value, the witness
// with is_clique, no timeout, no exception.  The last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"};
// the exit code is 0 only when every check passed.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "instances.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/heuristic.hpp"
#include "mc/incumbent.hpp"
#include "mc/lazymc.hpp"
#include "mc/neighbor_search.hpp"
#include "store/binary_graph.hpp"
#include "support/control.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"

namespace lmcbench {
namespace {

using namespace lazymc;

constexpr double kSolveTimeLimit = 60.0;
constexpr std::size_t kThreadCounts[] = {1, 4};

std::string suffix(std::size_t threads) {
  return "_t" + std::to_string(threads);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::ranges::min_element(v);
}

// ---- command line --------------------------------------------------------

struct Args {
  std::string command;
  std::string workload;
  std::string inputs;
  std::string out;
  std::string trace_out;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::map<std::string, VertexId> expected;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing command (gen | run)");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--inputs") {
      a.inputs = value;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--expect") {
      std::istringstream in(value);
      std::string item;
      while (std::getline(in, item, ',')) {
        const auto eq = item.find('=');
        if (eq == std::string::npos) {
          throw std::invalid_argument("--expect wants NAME=OMEGA, got " + item);
        }
        a.expected[item.substr(0, eq)] =
            static_cast<VertexId>(std::stoul(item.substr(eq + 1)));
      }
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  find_workload(a.workload);
  return a;
}

/// One input file: a replica of a suite instance.
struct Entry {
  std::string name;   // suite instance
  unsigned replica;
  std::string label;  // NAME.rREPLICA, also the file's stem
  std::string path;
};

std::vector<Entry> entries(const Args& a, const std::string& dir) {
  const Workload& wl = find_workload(a.workload);
  const char* ext = wl.binary_store ? ".lmg" : ".clq";
  std::vector<Entry> out;
  for (const std::string& name : wl.instances) {
    for (unsigned r = 0; r < wl.replicas; ++r) {
      const std::string label = name + ".r" + std::to_string(r);
      out.push_back({name, r, label,
                     (std::filesystem::path(dir) / (label + ext)).string()});
    }
  }
  return out;
}

// ---- gen -----------------------------------------------------------------

/// Runs `lazymc-convert IN OUT --with-rows --verify`, the converter built
/// next to this program; throws unless it exits 0.
void convert(const std::string& in, const std::string& out) {
  std::vector<std::string> args = {LMCBENCH_CONVERT, in, out, "--with-rows",
                                   "--verify"};
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ) !=
      0) {
    throw std::runtime_error("cannot start " + args[0]);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("lazymc-convert failed on " + in);
  }
}

int gen(const Args& a) {
  const bool binary = find_workload(a.workload).binary_store;
  // Keep the suite's disk cache out of the comparison (and off the disk).
  ::setenv("LAZYMC_SUITE_CACHE", "off", 1);
  std::filesystem::create_directories(a.out);
  for (const Entry& e : entries(a, a.out)) {
    const Graph g = make_instance(e.name, a.seed, e.replica);
    if (!binary) {
      io::write_dimacs_file(g, e.path);
      continue;
    }
    const std::string text =
        std::filesystem::path(e.path).replace_extension(".clq").string();
    io::write_dimacs_file(g, text);
    convert(text, e.path);
    std::filesystem::remove(text);
  }
  return 0;
}

// ---- loading and checking ------------------------------------------------

/// One loaded instance plus what a store carries for the solve.
struct Loaded {
  Graph graph;
  std::shared_ptr<store::BinaryGraphView> view;
  mc::PrebuiltGraph prebuilt;

  mc::LazyMCConfig config() const {
    mc::LazyMCConfig c;
    c.time_limit_seconds = kSolveTimeLimit;
    if (view) c.prebuilt = &prebuilt;
    return c;
  }
};

std::unique_ptr<Loaded> load(const std::string& path, bool binary) {
  auto l = std::make_unique<Loaded>();
  if (binary) {
    l->view = store::BinaryGraphView::open(path);
    l->graph = l->view->graph();
    l->prebuilt.order = &l->view->order();
    l->prebuilt.coreness = &l->view->coreness();
    l->prebuilt.degeneracy = l->view->degeneracy();
    l->prebuilt.rows = l->view->rows();
  } else {
    l->graph = io::read_graph_file(path);
  }
  return l;
}

/// Empty when the answer is right, else what is wrong with it.
std::string check_answer(const Graph& g, const std::vector<VertexId>& clique,
                         bool timed_out, VertexId expected) {
  if (timed_out) return "timed out";
  if (clique.size() != expected) {
    return "omega " + std::to_string(clique.size()) + ", expected " +
           std::to_string(expected);
  }
  if (!is_clique(g, clique)) return "witness is not a clique";
  return {};
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(const std::string& instance, std::size_t threads,
              const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    std::cerr << "lmcbench: FAIL " << instance << " at " << threads
              << " thread(s): " << problem << "\n";
  }
};

// ---- tracing -------------------------------------------------------------

/// In-memory span recorder; spans are written as Chrome trace-event JSON
/// when the run ends.  Thread count is the trace's thread track, so t1
/// and t4 solves sit on separate rows in Perfetto.
class Tracer {
 public:
  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}

  void set_context(std::string instance, std::size_t threads,
                   std::size_t round) {
    instance_ = std::move(instance);
    threads_ = threads;
    round_ = round;
  }

  /// Runs f inside a span named `name`; returns its seconds.
  template <typename F>
  double span(std::string name, F&& f) {
    const auto start = Clock::now();
    f();
    const auto end = Clock::now();
    events_.push_back({std::move(name), instance_, threads_, round_,
                       micros(start), micros(end) - micros(start)});
    return std::chrono::duration<double>(end - start).count();
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    JsonWriter w(out);
    out << std::setprecision(15);
    w.open();
    w.field("displayTimeUnit", "ms");
    w.open_array("traceEvents");
    for (std::size_t t : kThreadCounts) {
      w.open();
      w.field("name", "thread_name");
      w.field("ph", "M");
      w.field("pid", 1);
      w.field("tid", t);
      w.open("args");
      w.field("name", workload_ + " t" + std::to_string(t));
      w.close();
      w.close();
    }
    for (const Event& e : events_) {
      w.open();
      w.field("name", e.name);
      w.field("cat", e.name == e.instance ? "input" : "layer");
      w.field("ph", "X");
      w.field("pid", 1);
      w.field("tid", e.threads);
      w.field("ts", e.start_us);
      w.field("dur", e.dur_us);
      w.open("args");
      w.field("workload", workload_);
      w.field("instance", e.instance);
      w.field("threads", e.threads);
      w.field("round", e.round);
      w.close();
      w.close();
    }
    w.close_array();
    w.close();
    out << "\n";
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct Event {
    std::string name;
    std::string instance;
    std::size_t threads;
    std::size_t round;
    double start_us;
    double dur_us;
  };

  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  std::string workload_;
  std::string instance_;
  std::size_t threads_ = 1;
  std::size_t round_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Event> events_;
};

/// Per-layer sums over one round's instances, keyed by metric name
/// (without the thread suffix).
using Sample = std::map<std::string, double>;

struct TracedResult {
  std::unique_ptr<Loaded> loaded;
  std::vector<VertexId> clique;
  bool timed_out = false;
  VertexId omega_d = 0;
  VertexId omega_h = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t mc_nodes = 0;
  std::uint64_t vc_nodes = 0;
};

/// Loads and solves one instance through the public calls mc::lazy_mc
/// makes under a default LazyMCConfig, in the same order, with a span
/// around each call; adds every layer's time and counters to `sample`.
TracedResult traced_solve(const std::string& path, bool binary, Tracer& tracer,
                          Sample& sample) {
  TracedResult r;
  const mc::LazyMCConfig config;
  sample[binary ? "load.mmap_s" : "load.parse_s"] +=
      tracer.span("load", [&] { r.loaded = load(path, binary); });
  const Loaded& l = *r.loaded;
  const Graph& g = l.graph;

  SolveControl control(kSolveTimeLimit);
  mc::SearchStats stats;
  mc::IntersectPolicy policy{config.early_exit_intersections,
                             config.second_exit};
  policy.counters = &stats.kernels;
  Incumbent incumbent;
  mc::HeuristicOptions h;
  h.top_k = config.heuristic_top_k;
  h.intersect = policy;
  h.control = &control;

  sample["heuristic.degree_s"] += tracer.span(
      "heuristic.degree", [&] { mc::degree_based_heuristic(g, incumbent, h); });
  r.omega_d = incumbent.size();

  // A store ships the exact coreness and order, so lazy_mc skips k-core.
  const bool use_prebuilt =
      l.view && l.prebuilt.order->size() == g.num_vertices() &&
      l.prebuilt.coreness->size() == g.num_vertices();
  kcore::CoreDecomposition core;
  kcore::VertexOrder order;
  const kcore::VertexOrder* order_ref = &order;
  const std::vector<VertexId>* coreness_ref = &core.coreness;
  if (use_prebuilt) {
    order_ref = l.prebuilt.order;
    coreness_ref = l.prebuilt.coreness;
  } else {
    sample["kcore.s"] += tracer.span("kcore", [&] {
      core = kcore::coreness_lower_bounded(g, incumbent.size());
      order = kcore::order_by_coreness_degree_parallel(g, core.coreness);
    });
  }

  std::optional<LazyGraph> lazy;
  sample["lazygraph.setup_s"] += tracer.span("lazygraph", [&] {
    lazy.emplace(g, *order_ref, *coreness_ref, &incumbent.size_atomic());
    lazy->set_preferred_rep(config.neighborhood_rep);
    bool adopted = false;
    if (use_prebuilt && l.prebuilt.rows.valid() &&
        config.bitset_budget_bytes > 0) {
      adopted = lazy->adopt_prebuilt_rows(l.prebuilt.rows, /*hybrid=*/false);
    }
    if (!adopted && config.bitset_budget_bytes > 0) {
      lazy->enable_bitset_rows(config.bitset_budget_bytes);
    }
    lazy->prepopulate(config.prepopulate, incumbent.size());
  });

  sample["heuristic.coreness_s"] += tracer.span("heuristic.coreness", [&] {
    mc::coreness_based_heuristic(*lazy, incumbent, h);
  });
  r.omega_h = incumbent.size();

  mc::NeighborSearchOptions n;
  n.density_threshold = config.density_threshold;
  n.degree_filter_rounds = config.degree_filter_rounds;
  n.color_prune = config.color_prune;
  n.vc_node_budget_per_vertex = config.vc_node_budget_per_vertex;
  n.pre_extraction_density = config.pre_extraction_density;
  n.split_mode = config.split_mode;
  n.split_min_cands = config.split_min_cands;
  n.split_depth = config.split_depth;
  n.split_min_work = config.split_min_work;
  n.intersect = policy;
  n.control = &control;
  sample["search.s"] += tracer.span("search", [&] {
    mc::systematic_search(*lazy, incumbent, n, stats);
  });

  r.clique = incumbent.snapshot();
  std::sort(r.clique.begin(), r.clique.end());
  r.timed_out = control.cancelled();
  r.evaluated = stats.evaluated.load();
  r.mc_nodes = stats.mc_nodes.load();
  r.vc_nodes = stats.vc_nodes.load();

  const auto add = [&sample](const char* key, double v) { sample[key] += v; };
  add("heuristic.degree_omega", r.omega_d);
  add("heuristic.coreness_omega", r.omega_h);
  const LazyGraph::Stats ls = lazy->stats();
  add("lazygraph.rows_built", static_cast<double>(ls.bitset_built));
  add("lazygraph.rows_prebuilt", static_cast<double>(ls.rows_prebuilt));
  add("lazygraph.row_bytes", static_cast<double>(ls.bitset_bytes));
  add("lazygraph.hash_built", static_cast<double>(ls.hash_built));
  add("lazygraph.sorted_built", static_cast<double>(ls.sorted_built));
  add("lazygraph.hybrid_rows",
      static_cast<double>(ls.hybrid_rows_array + ls.hybrid_rows_bitset +
                          ls.hybrid_rows_run));
  add("search.filter_cpu_s", stats.filter_seconds());
  add("search.evaluated", static_cast<double>(r.evaluated));
  add("search.pass_filter3", static_cast<double>(stats.pass_filter3.load()));
  add("search.retired_chunks", static_cast<double>(stats.retired_chunks.load()));
  add("search.split_tasks", static_cast<double>(stats.split_tasks.load()));
  add("bb.mc_cpu_s", stats.mc_seconds());
  add("bb.mc_nodes", static_cast<double>(r.mc_nodes));
  add("bb.solved_mc", static_cast<double>(stats.solved_mc.load()));
  add("vc.cpu_s", stats.vc_seconds());
  add("vc.nodes", static_cast<double>(r.vc_nodes));
  add("vc.solved", static_cast<double>(stats.solved_vc.load()));
  add("vc.fallbacks", static_cast<double>(stats.vc_fallbacks.load()));
  const mc::KernelCounters& k = stats.kernels;
  add("intersect.bitset_word", static_cast<double>(k.bitset_word.load()));
  add("intersect.bitset_probe", static_cast<double>(k.bitset_probe.load()));
  add("intersect.hash", static_cast<double>(k.hash.load()));
  add("intersect.hash_batched", static_cast<double>(k.hash_batched.load()));
  add("intersect.merge", static_cast<double>(k.merge.load()));
  add("intersect.gallop", static_cast<double>(k.gallop.load()));
  add("intersect.array_gallop", static_cast<double>(k.array_gallop.load()));
  add("intersect.run_and", static_cast<double>(k.run_and.load()));
  return r;
}

/// Ratios and layer shares of one round, from its sums.  Reading a key
/// with operator[] also enters it as 0, so every round reports the same
/// metrics even when a layer never ran (kcore on stores, parse on .lmg).
void derive(Sample& s, std::size_t threads) {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  s["search.pass3_ratio"] = ratio(s["search.pass_filter3"], s["search.evaluated"]);
  s.erase("search.pass_filter3");
  s["vc.nodes_per_call"] =
      ratio(s["vc.nodes"], s["vc.solved"] + s["vc.fallbacks"]);
  const double cpu =
      s["search.filter_cpu_s"] + s["bb.mc_cpu_s"] + s["vc.cpu_s"];
  if (threads > 1) {
    s["search.busy_frac"] =
        ratio(cpu, static_cast<double>(threads) * s["search.s"]);
  }
  // Self time of each layer over the traced solve (load excluded from the
  // denominator, like solve_s).  The search span has no child spans; its
  // wall time is split by the CPU seconds filters, MC B&B and k-VC spent.
  const double solve = s["heuristic.degree_s"] + s["kcore.s"] +
                       s["lazygraph.setup_s"] + s["heuristic.coreness_s"] +
                       s["search.s"];
  s["trace.solve_s"] = solve;
  s["share.load"] = ratio(s["load.parse_s"] + s["load.mmap_s"], solve);
  s["share.heuristic.degree"] = ratio(s["heuristic.degree_s"], solve);
  s["share.kcore"] = ratio(s["kcore.s"], solve);
  s["share.lazygraph"] = ratio(s["lazygraph.setup_s"], solve);
  s["share.heuristic.coreness"] = ratio(s["heuristic.coreness_s"], solve);
  const double search_share = ratio(s["search.s"], solve);
  s["share.search.filter"] = search_share * ratio(s["search.filter_cpu_s"], cpu);
  s["share.bb.mc"] = search_share * ratio(s["bb.mc_cpu_s"], cpu);
  s["share.vc"] = search_share * ratio(s["vc.cpu_s"], cpu);
}

const char* unit_of(const std::string& key) {
  const auto ends_with = [&key](const char* tail) {
    const std::string t = tail;
    return key.size() >= t.size() &&
           key.compare(key.size() - t.size(), t.size(), t) == 0;
  };
  if (ends_with("_s") || ends_with(".s")) return "s";
  if (key.rfind("share.", 0) == 0 || ends_with("_ratio") ||
      ends_with("_frac")) {
    return "ratio";
  }
  if (ends_with("_bytes")) return "bytes";
  return "count";
}

// ---- run -----------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

void emit(const Args& a, const Tally& tally,
          const std::map<std::string, Metric>& metrics) {
  const double fail_rate =
      tally.attempted
          ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted)
          : 1.0;
  std::cout << std::setprecision(6);
  for (const auto& [name, m] : metrics) {
    std::cout << a.workload << "  " << std::left << std::setw(34) << name
              << std::right << std::setw(14) << m.value << " " << m.unit
              << "\n";
  }
  std::cout << a.workload << "  " << std::left << std::setw(34) << "fail_rate"
            << std::right << std::setw(14) << fail_rate << " ratio ("
            << tally.failed << " of " << tally.attempted << " solves)\n";

  std::ostringstream line;
  JsonWriter w(line);
  line << std::setprecision(17);
  w.open();
  w.field("correct", tally.failed == 0);
  w.field("attempted", tally.attempted);
  w.field("failed", tally.failed);
  w.open("metrics");
  for (const auto& [name, m] : metrics) {
    w.open(name);
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.close();
  }
  w.close();
  w.close();
  std::cout << line.str() << std::endl;
}

int run(const Args& a) {
  const Workload& wl = find_workload(a.workload);
  const std::vector<Entry> inputs = entries(a, a.inputs);
  for (const Entry& e : inputs) {
    if (!a.expected.contains(e.name)) {
      throw std::invalid_argument("no expected omega for " + e.name);
    }
  }
  Tally tally;
  std::map<std::string, Metric> metrics;

  // Set-up: passes that load every input, before the first round and
  // between rounds, so a slow spell in one part of the run weighs little;
  // the fastest pass counts.  The rounds solve the first pass's graphs.
  std::vector<std::unique_ptr<Loaded>> loaded;
  std::vector<double> setups;
  const auto set_up = [&](std::size_t min_passes, double min_seconds) {
    WallTimer set_up_clock;
    for (std::size_t pass = 0;
         pass < min_passes || set_up_clock.elapsed() < min_seconds; ++pass) {
      std::vector<std::unique_ptr<Loaded>> pass_loaded;
      WallTimer t;
      for (const Entry& e : inputs) {
        pass_loaded.push_back(load(e.path, wl.binary_store));
      }
      setups.push_back(t.elapsed());
      if (loaded.empty()) loaded = std::move(pass_loaded);
    }
  };

  Tracer tracer(a.workload);
  // solve_times[threads][input]: that input's solve time in every round.
  std::map<std::size_t, std::vector<std::vector<double>>> solve_times;
  std::map<std::size_t, std::vector<Sample>> samples;
  WallTimer clock;
  set_up(5, 1.0);
  double last_round = 0;
  // A round starts only if one more like the last still ends in time.
  for (std::size_t round = 0;
       round == 0 || clock.elapsed() + last_round <= a.seconds; ++round) {
    WallTimer round_clock;
    if (round > 0) set_up(1, 0.25);
    for (std::size_t threads : kThreadCounts) {
      set_num_threads(threads);
      std::vector<std::vector<double>>& times = solve_times[threads];
      times.resize(inputs.size());
      double solve_sum = 0;
      Sample sample;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const Entry& e = inputs[i];
        const VertexId expected = a.expected.at(e.name);
        const Loaded& l = *loaded[i];
        mc::LazyMCResult base;
        try {
          WallTimer t;
          base = mc::lazy_mc(l.graph, l.config());
          const double seconds = t.elapsed();
          times[i].push_back(seconds);
          solve_sum += seconds;
          tally.record(e.label, threads,
                       check_answer(l.graph, base.clique, base.timed_out,
                                    expected));
        } catch (const std::exception& ex) {
          tally.record(e.label, threads, std::string("exception: ") + ex.what());
          continue;
        }
        if (!a.trace) continue;

        tracer.set_context(e.label, threads, round);
        try {
          // The input's own span is the parent of its layer spans.
          TracedResult r;
          tracer.span(e.label, [&] {
            r = traced_solve(e.path, wl.binary_store, tracer, sample);
          });
          std::string problem = check_answer(r.loaded->graph, r.clique,
                                             r.timed_out, expected);
          // Fidelity: the decomposed pipeline must behave like lazy_mc.
          if (problem.empty() && (r.omega_d != base.heuristic_degree_omega ||
                                  r.omega_h != base.heuristic_coreness_omega)) {
            problem = "traced heuristics found " + std::to_string(r.omega_d) +
                      "/" + std::to_string(r.omega_h) + ", lazy_mc " +
                      std::to_string(base.heuristic_degree_omega) + "/" +
                      std::to_string(base.heuristic_coreness_omega);
          }
          if (problem.empty() && threads == 1 &&
              (r.evaluated != base.search.evaluated ||
               r.mc_nodes != base.search.mc_nodes ||
               r.vc_nodes != base.search.vc_nodes)) {
            problem = "traced search counts differ from lazy_mc at 1 thread";
          }
          tally.record(e.label, threads, problem);
        } catch (const std::exception& ex) {
          tally.record(e.label, threads,
                       std::string("traced exception: ") + ex.what());
        }
      }
      std::cerr << "lmcbench: " << a.workload << " round " << round << " at "
                << threads << " thread(s): " << solve_sum << " s\n";
      if (a.trace) {
        derive(sample, threads);
        sample["trace.overhead_s"] = sample["trace.solve_s"] - solve_sum;
        samples[threads].push_back(std::move(sample));
      }
    }
    last_round = round_clock.elapsed();
  }

  if (!a.trace) {
    // Contention from other tenants of the host only ever adds time, and
    // its spells last seconds, so a median still carries the spell a run
    // happened to meet.  The fastest pass and each input's fastest solve
    // measure the program's own cost.
    metrics["setup_s"] = {fastest(setups), "s"};
    for (std::size_t threads : kThreadCounts) {
      double solve = 0;
      for (const std::vector<double>& t : solve_times[threads]) solve += fastest(t);
      metrics["solve_s" + suffix(threads)] = {solve, "s"};
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0,
                              "MiB"};
  } else {
    for (std::size_t threads : kThreadCounts) {
      const std::vector<Sample>& rounds = samples[threads];
      for (const auto& entry : rounds.front()) {
        const std::string& key = entry.first;
        std::vector<double> values;
        for (const Sample& s : rounds) {
          const auto it = s.find(key);
          values.push_back(it == s.end() ? 0.0 : it->second);
        }
        metrics[key + suffix(threads)] = {median(values), unit_of(key)};
      }
    }
    if (!a.trace_out.empty()) tracer.write(a.trace_out);
  }
  emit(a, tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lmcbench

int main(int argc, char** argv) {
  try {
    const lmcbench::Args args = lmcbench::parse_args(argc, argv);
    if (args.command == "gen") return lmcbench::gen(args);
    if (args.command == "run") return lmcbench::run(args);
    throw std::invalid_argument("unknown command " + args.command);
  } catch (const std::exception& e) {
    std::cerr << "lmcbench: " << e.what() << "\n";
    return 2;
  }
}

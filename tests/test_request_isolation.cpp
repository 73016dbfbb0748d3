// Per-request isolation: concurrent lazy_mc solves multiplexed onto the
// shared thread pool, each owning its SolveControl/incumbent/stats.
// Cancelling, deadline-expiring, or interrupting request A must not
// perturb request B's result.  CI runs this suite under TSan — the
// launcher-gate discipline that makes concurrent external launchers
// legal is exactly what a race here would indict.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "cli/graph_source.hpp"
#include "daemon/server.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mc/lazymc.hpp"
#include "support/control.hpp"
#include "support/parallel.hpp"

namespace lazymc {
namespace {

using cli::LoadedGraph;
using mc::LazyMCConfig;
using mc::LazyMCResult;

LazyMCResult solve_with(const Graph& g, SolveControl& control) {
  LazyMCConfig config;
  config.control = &control;
  return mc::lazy_mc(g, config);
}

// ------------------------------------------------------------ StopCause

TEST(StopCause, FirstCauseWins) {
  SolveControl control;
  control.cancel(StopCause::kDeadline);
  control.cancel(StopCause::kCancelled);
  EXPECT_EQ(control.stop_cause(), StopCause::kDeadline);
  EXPECT_TRUE(control.cancelled());
  EXPECT_FALSE(control.interrupted());
}

TEST(StopCause, NamesAreStable) {
  EXPECT_STREQ(stop_cause_name(StopCause::kNone), "none");
  EXPECT_STREQ(stop_cause_name(StopCause::kDeadline), "deadline");
  EXPECT_STREQ(stop_cause_name(StopCause::kCancelled), "cancelled");
  EXPECT_STREQ(stop_cause_name(StopCause::kInterrupted), "interrupted");
}

TEST(StopCause, PrivateInterruptSourceIsObserved) {
  std::atomic<bool> private_flag{false};
  SolveControl control;
  control.set_interrupt_source(&private_flag);

  std::uint64_t counter = 0;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_FALSE(control.should_stop(counter));
  }
  private_flag.store(true);
  bool stopped = false;
  for (int i = 0; i < 5000 && !stopped; ++i) {
    stopped = control.should_stop(counter);
  }
  EXPECT_TRUE(stopped);
  EXPECT_EQ(control.stop_cause(), StopCause::kInterrupted);
  EXPECT_TRUE(control.interrupted());
  // The process-global flag was never involved.
  EXPECT_FALSE(interrupt::requested());
}

TEST(StopCause, NullInterruptSourceIgnoresProcessInterrupts) {
  interrupt::request();
  SolveControl control;
  control.set_interrupt_source(nullptr);
  std::uint64_t counter = 0;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(control.should_stop(counter));
  }
  EXPECT_FALSE(control.cancelled());
  EXPECT_EQ(control.stop_cause(), StopCause::kNone);
  interrupt::clear();
}

TEST(StopCause, HeartbeatsAdvanceWithCooperativeChecks) {
  SolveControl control;
  std::uint64_t counter = 0;
  const std::uint64_t before = control.heartbeats();
  for (int i = 0; i < 100000; ++i) control.should_stop(counter);
  EXPECT_GT(control.heartbeats(), before);
}

// --------------------------------------------------- concurrent isolation

TEST(RequestIsolation, ConcurrentSolvesAgreeWithSequentialReference) {
  const LoadedGraph a = cli::load_graph("gen:dblp:small");
  const LoadedGraph b = cli::load_graph("gen:flickr:small");

  SolveControl ref_a_control, ref_b_control;
  const VertexId omega_a = solve_with(a.graph, ref_a_control).omega;
  const VertexId omega_b = solve_with(b.graph, ref_b_control).omega;

  LazyMCResult result_a, result_b;
  SolveControl control_a, control_b;
  std::thread ta([&] { result_a = solve_with(a.graph, control_a); });
  std::thread tb([&] { result_b = solve_with(b.graph, control_b); });
  ta.join();
  tb.join();

  EXPECT_EQ(result_a.omega, omega_a);
  EXPECT_EQ(result_b.omega, omega_b);
  EXPECT_FALSE(result_a.timed_out);
  EXPECT_FALSE(result_b.timed_out);
  EXPECT_TRUE(is_clique(a.graph, result_a.clique));
  EXPECT_TRUE(is_clique(b.graph, result_b.clique));
}

TEST(RequestIsolation, CancellingADoesNotPerturbB) {
  const LoadedGraph a = cli::load_graph("gen:hollywood:small");
  const LoadedGraph b = cli::load_graph("gen:dblp:small");

  SolveControl reference_control;
  const VertexId omega_b = solve_with(b.graph, reference_control).omega;

  // A is cancelled immediately: its solve must unwind promptly to a
  // verified best-so-far result while B — sharing the pool — is solved
  // to optimality with its own untouched control.
  SolveControl control_a, control_b;
  control_a.cancel(StopCause::kCancelled);

  LazyMCResult result_a, result_b;
  std::thread ta([&] { result_a = solve_with(a.graph, control_a); });
  std::thread tb([&] { result_b = solve_with(b.graph, control_b); });
  ta.join();
  tb.join();

  EXPECT_EQ(control_a.stop_cause(), StopCause::kCancelled);
  EXPECT_EQ(control_b.stop_cause(), StopCause::kNone);
  EXPECT_EQ(result_b.omega, omega_b);
  EXPECT_TRUE(is_clique(b.graph, result_b.clique));
  // A's witness, however partial, must still be a clique of A's graph.
  EXPECT_TRUE(is_clique(a.graph, result_a.clique));
  EXPECT_LE(result_a.omega, solve_with(a.graph, reference_control).omega);
}

TEST(RequestIsolation, DeadlineOnADoesNotPerturbB) {
  const LoadedGraph a = cli::load_graph("gen:orkut:small");
  const LoadedGraph b = cli::load_graph("gen:flickr:small");

  SolveControl reference_control;
  const VertexId omega_b = solve_with(b.graph, reference_control).omega;

  // A's budget is already exhausted at submit time (the daemon measures
  // deadlines from admission): the solve observes the expired deadline
  // at its first cooperative check.
  SolveControl control_a(1e-9), control_b;

  LazyMCResult result_a, result_b;
  std::thread ta([&] { result_a = solve_with(a.graph, control_a); });
  std::thread tb([&] { result_b = solve_with(b.graph, control_b); });
  ta.join();
  tb.join();

  EXPECT_EQ(result_b.omega, omega_b);
  EXPECT_EQ(control_b.stop_cause(), StopCause::kNone);
  EXPECT_FALSE(result_b.timed_out);
  EXPECT_TRUE(is_clique(b.graph, result_b.clique));
}

TEST(RequestIsolation, ManyConcurrentSolvesAllVerify) {
  const LoadedGraph g = cli::load_graph("gen:dblp:tiny");
  SolveControl reference_control;
  const VertexId omega = solve_with(g.graph, reference_control).omega;

  constexpr int kSolvers = 4;
  std::vector<LazyMCResult> results(kSolvers);
  std::vector<SolveControl> controls(kSolvers);
  std::vector<std::thread> threads;
  threads.reserve(kSolvers);
  for (int i = 0; i < kSolvers; ++i) {
    threads.emplace_back(
        [&, i] { results[i] = solve_with(g.graph, controls[i]); });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kSolvers; ++i) {
    EXPECT_EQ(results[i].omega, omega) << "solver " << i;
    EXPECT_TRUE(is_clique(g.graph, results[i].clique)) << "solver " << i;
  }
}

// A graph load on a daemon connection thread must not queue behind
// another request's job: while a long drain holds the pool's launch
// gate, the load runs on the calling thread and finishes first.
TEST(RequestIsolation, TextLoadDoesNotWaitForARunningDrain) {
  using namespace std::chrono_literals;
  set_num_threads(4);
  // Big enough that an idle pool would parse it in four chunks.
  const std::string path = testing::TempDir() + "/lazymc_isolation_load.clq";
  io::write_dimacs_file(gen::gnp(1500, 0.05, 3), path);

  std::atomic<bool> drain_started{false};
  std::atomic<bool> load_done{false};
  bool released_by_load = false;
  std::thread drain([&] {
    drain_in_order(
        thread_pool(), 1,
        [&](std::size_t, std::size_t) {
          drain_started = true;
          const auto give_up = std::chrono::steady_clock::now() + 20s;
          while (!load_done && std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(1ms);
          }
          released_by_load = load_done;
        },
        [] { return false; });
  });
  while (!drain_started) std::this_thread::sleep_for(1ms);

  daemon::GraphStore store;
  const auto loaded = store.get(path);
  load_done = true;
  drain.join();

  EXPECT_TRUE(released_by_load) << "the load waited for the drain";
  EXPECT_EQ(loaded->graph.num_vertices(), 1500u);
  set_num_threads(0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lazymc

// Tests for the deterministic fault-injection registry (support/faultinject)
// and the solver's graceful-degradation guarantees at each injection site.
//
// Trigger-semantics tests run only in -DLAZYMC_FAULTS=ON builds (they
// GTEST_SKIP otherwise); the OFF-build contract — fault plans are rejected
// loudly instead of silently running clean — is tested in every build.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "baselines/reference.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "mc/lazymc.hpp"
#include "support/error.hpp"
#include "support/faultinject.hpp"
#include "support/parallel.hpp"

namespace lazymc {
namespace {

std::map<std::string, faults::SiteStats> sites_by_name() {
  std::map<std::string, faults::SiteStats> out;
  for (auto& s : faults::snapshot()) out[s.name] = s;
  return out;
}

// Every test starts and ends with a clean registry (the registry is
// process-global; leaking an armed trigger would poison later tests).
class FaultInject : public ::testing::Test {
 protected:
  void SetUp() override { faults::reset(); }
  void TearDown() override {
    faults::reset();
    set_num_threads(1);
  }
};

TEST(FaultInjectBuild, EmptySpecsAreAcceptedInEveryBuild) {
  EXPECT_NO_THROW(faults::configure(""));
  EXPECT_NO_THROW(faults::configure(","));
  EXPECT_NO_THROW(faults::configure_from_env());  // LAZYMC_FAULTS unset
}

TEST(FaultInjectBuild, OffBuildRejectsFaultPlans) {
  if (faults::enabled()) GTEST_SKIP() << "fault-injection build";
  // Silently running "clean" would report a fault-free pass the
  // experiment never executed, so this must be a hard input error.
  try {
    faults::configure("slab.alloc=nth:1");
    FAIL() << "expected Error(kInput)";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInput);
  }
  EXPECT_TRUE(faults::snapshot().empty());
}

TEST_F(FaultInject, MalformedSpecsAreInputErrors) {
  if (!faults::enabled()) GTEST_SKIP() << "needs -DLAZYMC_FAULTS=ON";
  const char* bad[] = {
      "noequals",        "=nth:1",      "x=",          "x=nth",
      "x=nth:0",         "x=nth:abc",   "x=every:0",   "x=prob:2",
      "x=prob:-0.5",     "x=prob:abc",  "x=magic:3",
  };
  for (const char* spec : bad) {
    try {
      faults::configure(spec);
      FAIL() << "accepted bad spec: " << spec;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInput) << spec;
    }
  }
}

TEST_F(FaultInject, NthFiresExactlyAtTheNthHit) {
  if (!faults::enabled()) GTEST_SKIP() << "needs -DLAZYMC_FAULTS=ON";
  faults::configure("test.nth=nth:3");
  std::vector<int> fired_at;
  for (int i = 1; i <= 10; ++i) {
    if (LAZYMC_FAULT_FIRED("test.nth")) fired_at.push_back(i);
  }
  EXPECT_EQ(fired_at, std::vector<int>{3});
  auto sites = sites_by_name();
  EXPECT_EQ(sites.at("test.nth").hits, 10u);
  EXPECT_EQ(sites.at("test.nth").fires, 1u);
  EXPECT_TRUE(sites.at("test.nth").armed);
}

TEST_F(FaultInject, EveryKFiresPeriodically) {
  if (!faults::enabled()) GTEST_SKIP() << "needs -DLAZYMC_FAULTS=ON";
  faults::configure("test.every=every:4");
  std::vector<int> fired_at;
  for (int i = 1; i <= 12; ++i) {
    if (LAZYMC_FAULT_FIRED("test.every")) fired_at.push_back(i);
  }
  EXPECT_EQ(fired_at, (std::vector<int>{4, 8, 12}));
}

TEST_F(FaultInject, ProbabilityEndpointsAreExact) {
  if (!faults::enabled()) GTEST_SKIP() << "needs -DLAZYMC_FAULTS=ON";
  faults::configure("test.p1=prob:1,test.p0=prob:0");
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(LAZYMC_FAULT_FIRED("test.p1"));
    EXPECT_FALSE(LAZYMC_FAULT_FIRED("test.p0"));
  }
}

TEST_F(FaultInject, SeededProbabilityIsDeterministic) {
  if (!faults::enabled()) GTEST_SKIP() << "needs -DLAZYMC_FAULTS=ON";
  auto run = [] {
    faults::configure("test.prob=prob:0.5:42");
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) {
      pattern.push_back(LAZYMC_FAULT_FIRED("test.prob"));
    }
    return pattern;
  };
  const auto first = run();
  faults::reset();
  const auto second = run();
  EXPECT_EQ(first, second);
  // Sanity: p=0.5 over 64 draws fires sometimes but not always.
  const auto fires = sites_by_name().at("test.prob").fires;
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
}

TEST_F(FaultInject, UnarmedSitesCountHitsWithoutFiring) {
  if (!faults::enabled()) GTEST_SKIP() << "needs -DLAZYMC_FAULTS=ON";
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(LAZYMC_FAULT_FIRED("test.unarmed"));
  }
  auto sites = sites_by_name();
  EXPECT_EQ(sites.at("test.unarmed").hits, 5u);
  EXPECT_EQ(sites.at("test.unarmed").fires, 0u);
  EXPECT_FALSE(sites.at("test.unarmed").armed);
}

TEST_F(FaultInject, MisspelledSiteShowsUpArmedWithZeroHits) {
  if (!faults::enabled()) GTEST_SKIP() << "needs -DLAZYMC_FAULTS=ON";
  // A typo in a fault plan must be diagnosable from the snapshot: the
  // site exists (configure interns it) but nothing ever polls it.
  faults::configure("no.such.site=nth:1");
  auto r = mc::lazy_mc(gen::gnp(40, 0.3, 3));
  EXPECT_FALSE(r.clique.empty());
  auto sites = sites_by_name();
  ASSERT_TRUE(sites.count("no.such.site"));
  EXPECT_EQ(sites.at("no.such.site").hits, 0u);
  EXPECT_TRUE(sites.at("no.such.site").armed);
}

// --- graceful degradation at the solver sites ---------------------------

// A config that exercises the representation-heavy paths: zone bitset
// rows and sparse word sets.
mc::LazyMCConfig stress_config() {
  mc::LazyMCConfig c;
  c.neighborhood_rep = NeighborhoodRep::kBitset;
  return c;
}

// A seed whose gnp(70, 0.18) instance the heuristics cannot certify, so
// the systematic phase actually processes work (worker sites get hit).
std::uint64_t find_systematic_seed() {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    auto r = mc::lazy_mc(gen::gnp(70, 0.18, seed));
    if (r.search.evaluated > 0) return seed;
  }
  return 0;
}

TEST_F(FaultInject, RowBlockFaultTurnsRowsOffNotOmega) {
  if (!faults::enabled()) GTEST_SKIP() << "needs -DLAZYMC_FAULTS=ON";
  Graph g = gen::gnp(60, 0.5, 7);
  const auto expected = baselines::max_clique_reference(g).size();

  // Clean run first: the bitset representation must actually be in play,
  // otherwise this test exercises nothing.
  auto clean = mc::lazy_mc(g, stress_config());
  ASSERT_EQ(clean.omega, expected);
  ASSERT_GT(clean.lazy_graph.bitset_built, 0u);

  // The clean run advanced the sites' hit counters; zero them so nth:1
  // counts from the injection run's first hit.
  faults::reset();
  faults::configure("slab.alloc=nth:1");
  auto r = mc::lazy_mc(g, stress_config());
  EXPECT_EQ(r.omega, expected);
  EXPECT_TRUE(is_clique(g, r.clique));
  // The one row block of the solve failed: no rows at all, CSR views
  // serve the zone, and the failure is counted once.
  EXPECT_EQ(r.lazy_graph.bitset_built, 0u);
  EXPECT_EQ(r.lazy_graph.hash_built + r.lazy_graph.sorted_built, 0u);
  EXPECT_EQ(r.lazy_graph.zone_size, 0u);
  EXPECT_EQ(r.lazy_graph.bitset_degraded, 1u);
  EXPECT_EQ(sites_by_name().at("slab.alloc").fires, 1u);
}

TEST_F(FaultInject, RowBuildFaultsDegradeVerticesNotOmega) {
  if (!faults::enabled()) GTEST_SKIP() << "needs -DLAZYMC_FAULTS=ON";
  Graph g = gen::gnp(60, 0.5, 7);
  const auto expected = baselines::max_clique_reference(g).size();

  faults::configure("bitset.row=every:2");
  auto r = mc::lazy_mc(g, stress_config());
  EXPECT_EQ(r.omega, expected);
  EXPECT_TRUE(is_clique(g, r.clique));
  // Every second row build failed and fell back to the vertex's CSR
  // view; the others still built their rows.
  const auto fires = sites_by_name().at("bitset.row").fires;
  EXPECT_GE(fires, 1u);
  EXPECT_EQ(r.lazy_graph.bitset_degraded, fires);
  EXPECT_GT(r.lazy_graph.bitset_built, 0u);
}

TEST_F(FaultInject, WordSetFaultsFallBackToScalarKernels) {
  if (!faults::enabled()) GTEST_SKIP() << "needs -DLAZYMC_FAULTS=ON";
  const std::uint64_t seed = find_systematic_seed();
  ASSERT_NE(seed, 0u) << "no instance reached the systematic phase";
  Graph g = gen::gnp(70, 0.18, seed);
  const auto expected = baselines::max_clique_reference(g).size();

  faults::reset();  // the seed probe advanced the hit counters
  faults::configure("wordset.build=every:2");
  auto r = mc::lazy_mc(g, stress_config());
  EXPECT_EQ(r.omega, expected);
  EXPECT_TRUE(is_clique(g, r.clique));
  auto sites = sites_by_name();
  if (sites.at("wordset.build").hits > 0) {
    EXPECT_GE(sites.at("wordset.build").fires, 1u);
    EXPECT_EQ(r.search.degraded_wordsets, sites.at("wordset.build").fires);
  }
}

TEST_F(FaultInject, WorkerExceptionCancelsCleanlyAndPoolSurvives) {
  if (!faults::enabled()) GTEST_SKIP() << "needs -DLAZYMC_FAULTS=ON";
  const std::uint64_t seed = find_systematic_seed();
  ASSERT_NE(seed, 0u) << "no instance reached the systematic phase";
  set_num_threads(4);
  Graph g = gen::gnp(70, 0.18, seed);
  const auto expected = baselines::max_clique_reference(g).size();

  faults::reset();  // the seed probe advanced the hit counters
  faults::configure("worker.exec=nth:1");
  try {
    (void)mc::lazy_mc(g, stress_config());
    FAIL() << "expected the injected worker fault to surface";
  } catch (const Error& e) {
    // Structured and transient: the batch driver's retry policy applies.
    EXPECT_EQ(e.kind(), ErrorKind::kResource);
    EXPECT_TRUE(e.transient());
  }
  EXPECT_GE(sites_by_name().at("worker.exec").fires, 1u);

  // The pool, arenas and registry must be reusable in-process after the
  // failed solve unwound.
  faults::reset();
  auto r = mc::lazy_mc(g, stress_config());
  EXPECT_EQ(r.omega, expected);
  EXPECT_TRUE(is_clique(g, r.clique));
}

TEST_F(FaultInject, InjectedStallOnlySlowsTheSolve) {
  if (!faults::enabled()) GTEST_SKIP() << "needs -DLAZYMC_FAULTS=ON";
  const std::uint64_t seed = find_systematic_seed();
  ASSERT_NE(seed, 0u) << "no instance reached the systematic phase";
  set_num_threads(4);
  Graph g = gen::gnp(70, 0.18, seed);
  const auto expected = baselines::max_clique_reference(g).size();

  faults::reset();  // the seed probe advanced the hit counters
  faults::configure("worker.stall=every:3");
  auto r = mc::lazy_mc(g, stress_config());
  EXPECT_EQ(r.omega, expected);
  EXPECT_TRUE(is_clique(g, r.clique));
}

TEST_F(FaultInject, EveryRegisteredSiteFiresAcrossTheMatrix) {
  if (!faults::enabled()) GTEST_SKIP() << "needs -DLAZYMC_FAULTS=ON";
  const std::uint64_t seed = find_systematic_seed();
  ASSERT_NE(seed, 0u) << "no instance reached the systematic phase";
  set_num_threads(4);
  Graph g = gen::gnp(70, 0.18, seed);
  Graph dense = gen::gnp(60, 0.5, 7);

  faults::reset();  // the seed probe advanced the hit counters
  faults::configure(
      "slab.alloc=nth:1,bitset.row=every:2,wordset.build=every:2,"
      "worker.stall=nth:1");
  (void)mc::lazy_mc(dense, stress_config());
  (void)mc::lazy_mc(g, stress_config());
  // worker.exec was already polled by the solves above, so nth:1 would
  // never match again; every:1 fires on the next hit regardless.
  faults::configure("worker.exec=every:1");
  try {
    (void)mc::lazy_mc(g, stress_config());
  } catch (const faults::InjectedFault&) {
  }

  auto sites = sites_by_name();
  for (const char* name : {"slab.alloc", "bitset.row", "wordset.build",
                           "worker.exec", "worker.stall"}) {
    ASSERT_TRUE(sites.count(name)) << name << " never interned";
    EXPECT_GE(sites.at(name).fires, 1u) << name << " never fired";
  }
}

}  // namespace
}  // namespace lazymc

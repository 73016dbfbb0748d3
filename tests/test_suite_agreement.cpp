// Parameterized cross-solver agreement over the *entire* 28-instance
// suite at tiny scale: LazyMC, PMC, MC-BRB, and the reference solver must
// agree on omega for every structural regime the corpus covers.  (dOmega
// is exercised on a subset — its LS variant is slow by design on
// large-gap instances, which is the paper's point.)
#include <gtest/gtest.h>

#include "baselines/domega.hpp"
#include "baselines/mcbrb.hpp"
#include "baselines/pmc.hpp"
#include "baselines/reference.hpp"
#include "graph/suite.hpp"
#include "mc/lazymc.hpp"

namespace lazymc {
namespace {

class SuiteAgreementTest : public testing::TestWithParam<std::string> {};

TEST_P(SuiteAgreementTest, AllSolversAgreeOnOmega) {
  auto inst = suite::make_instance(GetParam(), suite::Scale::kTiny);
  const Graph& g = inst.graph;

  auto ref = baselines::max_clique_reference(g);
  std::size_t omega = ref.size();
  ASSERT_TRUE(is_clique(g, ref));

  auto lazy = mc::lazy_mc(g);
  EXPECT_EQ(lazy.omega, omega) << "lazymc";
  EXPECT_TRUE(is_clique(g, lazy.clique));
  EXPECT_FALSE(lazy.timed_out);

  auto pmc = baselines::pmc_solve(g);
  EXPECT_EQ(pmc.omega, omega) << "pmc";
  EXPECT_TRUE(is_clique(g, pmc.clique));

  auto brb = baselines::mcbrb_solve(g);
  EXPECT_EQ(brb.omega, omega) << "mcbrb";
  EXPECT_TRUE(is_clique(g, brb.clique));

  // Zero-gap expectation encoded in the suite matches reality.
  if (inst.zero_gap_expected) {
    EXPECT_EQ(lazy.degeneracy + 1, lazy.omega) << "expected zero gap";
  }
}

INSTANTIATE_TEST_SUITE_P(AllInstances, SuiteAgreementTest,
                         testing::ValuesIn(suite::instance_names()),
                         [](const testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

class DomegaAgreementTest : public testing::TestWithParam<std::string> {};

TEST_P(DomegaAgreementTest, BothVariantsAgree) {
  auto inst = suite::make_instance(GetParam(), suite::Scale::kTiny);
  const Graph& g = inst.graph;
  auto lazy = mc::lazy_mc(g);
  auto ls = baselines::domega_solve(g, baselines::DomegaMode::kLinearScan);
  auto bs = baselines::domega_solve(g, baselines::DomegaMode::kBinarySearch);
  EXPECT_EQ(ls.omega, lazy.omega);
  EXPECT_EQ(bs.omega, lazy.omega);
  EXPECT_TRUE(is_clique(g, ls.clique));
  EXPECT_TRUE(is_clique(g, bs.clique));
}

INSTANTIATE_TEST_SUITE_P(Subset, DomegaAgreementTest,
                         testing::Values("USAroad", "dblp", "yahoo", "orkut",
                                         "WormNet", "hudong", "talk",
                                         "higgs"),
                         [](const testing::TestParamInfo<std::string>&
                                param_info) { return param_info.param; });

}  // namespace
}  // namespace lazymc

// SIMD kernel-tier dispatch: unit coverage of the tier model
// (support/simd.hpp) plus the suite-wide agreement sweep the SIMD engine
// must pass — omega identical under every supported --kernels tier
// (scalar always included, avx2/avx512 when the build + CPU provide
// them) at 1, 2 and 8 threads, with bitset rows forced so the
// word-parallel kernels actually run.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "graph/suite.hpp"
#include "mc/lazymc.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"
#include "support/wordops.hpp"

namespace lazymc {
namespace {

using simd::supported_tiers;

TEST(SimdTiers, ScalarAlwaysSupportedAndNamed) {
  auto tiers = supported_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), simd::Tier::kScalar);
  EXPECT_TRUE(simd::tier_compiled(simd::Tier::kScalar));
  EXPECT_TRUE(simd::tier_supported(simd::Tier::kScalar));
  EXPECT_STREQ(simd::tier_name(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAvx2), "avx2");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAvx512), "avx512");
}

TEST(SimdTiers, SupportRequiresCompilation) {
  for (std::size_t t = 0; t < simd::kNumTiers; ++t) {
    const simd::Tier tier = static_cast<simd::Tier>(t);
    if (!simd::tier_compiled(tier)) {
      EXPECT_FALSE(simd::tier_supported(tier)) << simd::tier_name(tier);
      EXPECT_FALSE(simd::force_tier(tier));
    }
  }
  EXPECT_TRUE(simd::tier_supported(simd::best_tier()));
}

TEST(SimdTiers, ForceAndResetSteerDispatch) {
  ASSERT_TRUE(simd::force_tier(simd::Tier::kScalar));
  EXPECT_EQ(simd::current_tier(), simd::Tier::kScalar);
  EXPECT_EQ(wordops::active().tier, simd::Tier::kScalar);
  simd::reset_tier();
  EXPECT_EQ(simd::current_tier(), simd::best_tier());
  EXPECT_EQ(wordops::active().tier, simd::best_tier());
}

TEST(SimdTiers, ForcingUnavailableTierFailsLoudlyInLazyMc) {
  // Find a tier that is not supported; when the build targets the full
  // AVX-512 host feature set there may be none, in which case the loud
  // failure path is untestable here.
  for (std::size_t t = 0; t < simd::kNumTiers; ++t) {
    const simd::Tier tier = static_cast<simd::Tier>(t);
    if (simd::tier_supported(tier)) continue;
    auto inst = suite::make_instance("webcc", suite::Scale::kTiny);
    mc::LazyMCConfig cfg;
    cfg.kernel_tier = tier;
    EXPECT_THROW(mc::lazy_mc(inst.graph, cfg), std::runtime_error);
    return;
  }
  GTEST_SKIP() << "every tier is supported on this build/CPU";
}

TEST(SimdTiers, ConfigForcedTierDoesNotLeakIntoLaterSolves) {
  // A forced baseline (kernel_tier = scalar) must not leave the process
  // pinned to scalar: a later auto solve gets best-tier dispatch again.
  auto inst = suite::make_instance("webcc", suite::Scale::kTiny);
  mc::LazyMCConfig forced;
  forced.kernel_tier = simd::Tier::kScalar;
  auto f = mc::lazy_mc(inst.graph, forced);
  EXPECT_EQ(f.search.simd_tier, "scalar");
  EXPECT_EQ(simd::current_tier(), simd::best_tier());
  mc::LazyMCConfig auto_cfg;
  auto r = mc::lazy_mc(inst.graph, auto_cfg);
  EXPECT_EQ(r.search.simd_tier, simd::tier_name(simd::best_tier()));
  // ...and an ambient force set directly by the caller is restored too.
  ASSERT_TRUE(simd::force_tier(simd::Tier::kScalar));
  mc::lazy_mc(inst.graph, forced);
  EXPECT_EQ(simd::forced_tier(), simd::Tier::kScalar);
  simd::reset_tier();
}

TEST(SimdTiers, BulkPopcountBitIdenticalAcrossTiers) {
  // The AVX2 bulk popcounts accumulate 16-word blocks through a
  // Harley-Seal carry-save tree; every tier must agree with the plain
  // scalar fold at every size around the 4-word and 16-word block
  // boundaries (and the partially-filled tails between them).
  std::vector<std::uint64_t> a, b;
  std::mt19937_64 rng(12345);
  for (std::size_t i = 0; i < 80; ++i) {
    a.push_back(rng());
    b.push_back(rng());
  }
  a[3] = ~0ULL;  // saturated columns stress the carry-save adders
  b[3] = ~0ULL;
  a[20] = 0;
  for (std::size_t n : {0u,  1u,  3u,  4u,  5u,  15u, 16u, 17u, 31u, 32u,
                        33u, 47u, 48u, 49u, 63u, 64u, 65u, 79u, 80u}) {
    std::size_t want = 0, want_and = 0;
    for (std::size_t i = 0; i < n; ++i) {
      want += static_cast<std::size_t>(std::popcount(a[i]));
      want_and += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
    }
    for (simd::Tier tier : supported_tiers()) {
      ASSERT_TRUE(simd::force_tier(tier));
      const wordops::Table& ops = wordops::active();
      EXPECT_EQ(ops.popcount(a.data(), n), want)
          << "n=" << n << " tier=" << simd::tier_name(tier);
      EXPECT_EQ(ops.popcount_and(a.data(), b.data(), n), want_and)
          << "n=" << n << " tier=" << simd::tier_name(tier);
    }
    simd::reset_tier();
  }
}

class KernelTierSweepTest : public testing::TestWithParam<std::string> {
 protected:
  void TearDown() override {
    simd::reset_tier();
    set_num_threads(0);
  }
};

TEST_P(KernelTierSweepTest, OmegaIdenticalAcrossTiersAndThreads) {
  auto inst = suite::make_instance(GetParam(), suite::Scale::kTiny);
  const Graph& g = inst.graph;

  set_num_threads(1);
  mc::LazyMCConfig base;
  base.neighborhood_rep = NeighborhoodRep::kBitset;
  base.kernel_tier = simd::Tier::kScalar;
  const auto baseline = mc::lazy_mc(g, base);
  ASSERT_TRUE(is_clique(g, baseline.clique));
  ASSERT_EQ(baseline.search.simd_tier, "scalar");

  for (std::size_t threads : {1, 2, 8}) {
    set_num_threads(threads);
    for (simd::Tier tier : supported_tiers()) {
      mc::LazyMCConfig cfg;
      cfg.neighborhood_rep = NeighborhoodRep::kBitset;
      cfg.kernel_tier = tier;
      auto r = mc::lazy_mc(g, cfg);
      EXPECT_EQ(r.omega, baseline.omega)
          << GetParam() << " threads=" << threads
          << " tier=" << simd::tier_name(tier);
      EXPECT_TRUE(is_clique(g, r.clique));
      EXPECT_FALSE(r.timed_out);
      EXPECT_EQ(r.search.simd_tier, simd::tier_name(tier));
      // Any bitset-word dispatch must be attributed to the forced tier.
      const std::uint64_t attributed =
          tier == simd::Tier::kScalar   ? r.search.kernel_word_scalar
          : tier == simd::Tier::kAvx2   ? r.search.kernel_word_avx2
                                        : r.search.kernel_word_avx512;
      EXPECT_EQ(attributed, r.search.kernel_bitset_word);
    }
    // Auto dispatch (no forced tier) must agree too.
    simd::reset_tier();
    mc::LazyMCConfig auto_cfg;
    auto_cfg.neighborhood_rep = NeighborhoodRep::kBitset;
    auto r = mc::lazy_mc(g, auto_cfg);
    EXPECT_EQ(r.omega, baseline.omega) << GetParam() << " tier=auto";
    EXPECT_EQ(r.search.simd_tier, simd::tier_name(simd::best_tier()));
  }
}

INSTANTIATE_TEST_SUITE_P(AllInstances, KernelTierSweepTest,
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

}  // namespace
}  // namespace lazymc

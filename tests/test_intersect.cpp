// Differential test of the intersection scans (Algorithms 3 and 4):
// every kernel the dispatcher runs x every query x every exit setting x
// every θ from -1 to |A|+1, checked against intersect_reference on random
// and edge-case inputs.  csr-scan reads B through a shuffled id map.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "hashset/hopscotch_set.hpp"
#include "intersect/intersect.hpp"
#include "intersect_fixtures.hpp"
#include "support/random.hpp"

namespace lazymc {
namespace {

TEST(SortedLookup, BinarySearchContains) {
  std::vector<VertexId> data = {1, 3, 5, 7};
  SortedLookup look(data);
  EXPECT_TRUE(look.contains(1));
  EXPECT_TRUE(look.contains(7));
  EXPECT_FALSE(look.contains(2));
  EXPECT_FALSE(look.contains(0));
  EXPECT_EQ(look.size(), 4u);
}

/// The seven kernels mc::IntersectPolicy dispatches to.
enum class Kernel { hash, hash_batched, bitset_probe, bitset_word, gallop,
                    merge, csr_scan };
constexpr Kernel kKernels[] = {Kernel::hash,        Kernel::hash_batched,
                               Kernel::bitset_probe, Kernel::bitset_word,
                               Kernel::gallop,      Kernel::merge,
                               Kernel::csr_scan};
constexpr const char* kKernelNames[] = {"hash",        "hash-batched",
                                        "bitset-probe", "bitset-word",
                                        "gallop",      "merge",
                                        "csr-scan"};
constexpr const char* kExitNames[] = {"all", "no-second", "none"};

/// One (A, B) pair, sorted and unique, inside the zone
/// [zone_begin, zone_begin + zone_bits), in every form a kernel reads.
struct Case {
  std::string label;
  std::vector<VertexId> a, b;
  VertexId zone_begin = 0;
  VertexId zone_bits = 64;
};

class Inputs {
 public:
  explicit Inputs(const Case& c)
      : a(c.a), b(c.b), hash(make_set(c.b)), look(b),
        row(c.b, c.zone_begin, c.zone_bits) {
    a_words.build(a, c.zone_begin);
    // B as a CSR row: its ids under a shuffled "original" numbering,
    // sorted there, so the list is unsorted once mapped back.
    const VertexId universe = c.zone_begin + c.zone_bits;
    std::vector<VertexId> new_to_orig(universe);
    for (VertexId v = 0; v < universe; ++v) new_to_orig[v] = v;
    Rng rng(universe);
    for (VertexId v = universe; v > 1; --v) {
      std::swap(new_to_orig[v - 1],
                new_to_orig[static_cast<VertexId>(rng.next_below(v))]);
    }
    orig_to_new.resize(universe);
    for (VertexId v = 0; v < universe; ++v) orig_to_new[new_to_orig[v]] = v;
    for (VertexId x : c.b) csr.push_back(new_to_orig[x]);
    std::sort(csr.begin(), csr.end());
    marks.cover(c.zone_begin, universe);
  }

  template <Query Q, Exits E>
  QueryResult<Q> run(Kernel k, VertexId* out, std::int64_t theta) const {
    switch (k) {
      case Kernel::hash:
        return probe_scan<Q, E>(a, hash, out, theta);
      case Kernel::hash_batched:
        return probe_scan<Q, E, HopscotchSet, ProbeRing>(a, hash, out,
                                                         theta);
      case Kernel::bitset_probe:
        return probe_scan<Q, E>(a, row.row, out, theta);
      case Kernel::bitset_word:
        return word_scan<Q, E>(a_words, row.row, out, theta);
      case Kernel::gallop:
        return probe_scan<Q, E>(a, look, out, theta);
      case Kernel::merge:
        return merge_scan<Q, E>(a, b, out, theta);
      case Kernel::csr_scan:
        return run_csr<Q, E>(out, theta);
    }
    return too_small<Q>();
  }

  std::span<const VertexId> a, b;

 private:
  /// As mc::IntersectPolicy runs it: A marked and B's list scanned, or
  /// for gt B marked and A probed.  The marks are empty again after.
  template <Query Q, Exits E>
  QueryResult<Q> run_csr(VertexId* out, std::int64_t theta) const {
    QueryResult<Q> r;
    if constexpr (Q == Query::gt) {
      marks.mark(csr, orig_to_new.data());
      r = probe_scan<Q, E>(a, marks, out, theta);
      marks.clear(csr, orig_to_new.data());
    } else {
      marks.mark(a);
      r = csr_scan<Q, E>(marks, csr, orig_to_new.data(), theta);
      marks.clear(a);
    }
    EXPECT_TRUE(marks.empty());
    return r;
  }

  HopscotchSet hash;
  SortedLookup look;
  OwnedRow row;
  SparseWordSet a_words;
  std::vector<VertexId> csr, orig_to_new;
  mutable IdMarks marks;
};

/// Every kernel and query under exit setting E at one θ (no_second only
/// for the boolean query, the one with a second exit).  The answers must
/// not depend on which exit fires or where.
template <Exits E>
void check(const Case& c, const Inputs& in,
           const std::vector<VertexId>& expected, std::int64_t theta) {
  const auto truth = static_cast<std::int64_t>(expected.size());
  const bool above = truth > theta;
  std::vector<VertexId> out(c.a.size() + 1);
  for (Kernel k : kKernels) {
    auto where = [&] {
      return c.label + " kernel=" + kKernelNames[static_cast<int>(k)] +
             " exits=" + kExitNames[static_cast<int>(E)] +
             " theta=" + std::to_string(theta);
    };
    EXPECT_EQ((in.run<Query::size_gt_bool, E>(k, nullptr, theta)), above)
        << where();
    if constexpr (E != Exits::no_second) {
      EXPECT_EQ((in.run<Query::size_gt_val, E>(k, nullptr, theta)),
                above ? static_cast<int>(truth) : kTooSmall)
          << where();
      const int g = in.run<Query::gt, E>(k, out.data(), theta);
      if (above) {
        ASSERT_EQ(g, static_cast<int>(truth)) << where();
        EXPECT_TRUE(
            std::equal(expected.begin(), expected.end(), out.begin()))
            << where();  // every kernel yields A's (ascending) order
      } else {
        EXPECT_EQ(g, kTooSmall) << where();
      }
    }
  }
}

/// Every θ in [-1, |A|+1] for small A; for large A the θs around
/// |A ∩ B| and |A|, which put the first exit after about one word, one
/// word short of the end, and at the end.
std::vector<std::int64_t> thetas_for(std::int64_t na, std::int64_t truth) {
  std::vector<std::int64_t> thetas;
  if (na <= 200) {
    for (std::int64_t t = -1; t <= na + 1; ++t) thetas.push_back(t);
  } else {
    thetas = {-1,        0,         truth - 65, truth - 1, truth,
              truth + 1, truth + 63, na - 1,     na,        na + 1};
  }
  return thetas;
}

void check_case(const Case& c) {
  const Inputs in(c);
  const auto expected = intersect_reference(c.a, c.b);
  const auto na = static_cast<std::int64_t>(c.a.size());
  for (std::int64_t theta :
       thetas_for(na, static_cast<std::int64_t>(expected.size()))) {
    check<Exits::all>(c, in, expected, theta);
    check<Exits::no_second>(c, in, expected, theta);
    check<Exits::none>(c, in, expected, theta);
  }
}

std::vector<VertexId> range(VertexId begin, VertexId end) {
  std::vector<VertexId> v;
  for (VertexId x = begin; x < end; ++x) v.push_back(x);
  return v;
}

/// Exactly `size` distinct random ids inside the zone, ascending.
std::vector<VertexId> random_exact_set(Rng& rng, std::size_t size,
                                       VertexId zone_begin,
                                       VertexId zone_bits) {
  std::vector<bool> taken(zone_bits, false);
  std::vector<VertexId> v;
  while (v.size() < size) {
    const auto off = static_cast<VertexId>(rng.next_below(zone_bits));
    if (!taken[off]) {
      taken[off] = true;
      v.push_back(zone_begin + off);
    }
  }
  std::sort(v.begin(), v.end());
  return v;
}

/// The input table: edge cases, then random sets over word-boundary zones,
/// multi-word rows, fixed sizes of A, and small dense sets.
std::vector<Case> all_cases() {
  std::vector<Case> cases = {
      {"empty A", {}, {1, 2, 3}},
      {"empty B", {1, 2, 3}, {}},
      {"both empty", {}, {}},
      // The size guards: |A| or |B| at or below θ answers too-small at once.
      {"A smaller than B", {1, 2}, range(1, 7)},
      {"B smaller than A", range(1, 7), {1, 2}},
      {"disjoint ranges", range(1, 6), {100, 200, 300, 400, 500}, 0, 512},
      // Every element hits, so the second exit fires at hit θ+1.
      {"identical sets", range(0, 2000), range(0, 2000), 0, 2000},
      {"identical small sets", range(3, 40), range(3, 40)},
  };
  // A fills 16 whole words and B keeps words [0, keep) of it, so the miss
  // budget runs dry at a chosen word.
  for (VertexId keep = 0; keep <= 16; ++keep) {
    cases.push_back({"budget exit, keep " + std::to_string(keep) + " words",
                     range(0, 1024), range(0, keep * 64), 0, 1024});
  }
  auto add = [&](std::string label, std::vector<VertexId> a,
                 std::vector<VertexId> b, VertexId zone_begin,
                 VertexId zone_bits) {
    cases.push_back({std::move(label), std::move(a), std::move(b),
                     zone_begin, zone_bits});
  };
  // Zone offsets and word-boundary zone sizes, 60 rounds each.
  Rng zone_rng(111);
  for (VertexId zone_begin : {VertexId{0}, VertexId{7}, VertexId{64}}) {
    for (VertexId zone_bits :
         {VertexId{63}, VertexId{64}, VertexId{65}, VertexId{200}}) {
      for (int round = 0; round < 60; ++round) {
        auto a = random_zone_set(zone_rng, 40, zone_begin, zone_bits);
        auto b = random_zone_set(zone_rng, 40, zone_begin, zone_bits);
        add("zone " + std::to_string(zone_begin) + "+" +
                std::to_string(zone_bits) + " round " + std::to_string(round),
            std::move(a), std::move(b), zone_begin, zone_bits);
      }
    }
  }
  // Rows of 4, 5, 8 and 9 words, with partly filled last words on either
  // side of a full one, 25 rounds each.
  Rng multi_rng(1000);
  for (VertexId zone_begin : {VertexId{0}, VertexId{7}}) {
    for (VertexId zone_bits :
         {VertexId{255}, VertexId{256}, VertexId{257}, VertexId{511},
          VertexId{512}, VertexId{513}}) {
      for (int round = 0; round < 25; ++round) {
        auto a = random_zone_set(multi_rng, 160, zone_begin, zone_bits);
        auto b = random_zone_set(multi_rng, 160, zone_begin, zone_bits);
        add("multi-word " + std::to_string(zone_begin) + "+" +
                std::to_string(zone_bits) + " round " + std::to_string(round),
            std::move(a), std::move(b), zone_begin, zone_bits);
      }
    }
  }
  // |A| fixed around the prefetch ring's lookahead (8), the batch
  // threshold (16) and a word (64), 20 rounds each: against a B of up to
  // 120 draws from the same 300 ids, and against a B of 5000 draws from
  // 10000 ids (|B| >= 32 |A|, the gallop shape).
  Rng probe_rng(222);
  Rng skew_rng(3);
  for (std::size_t na : {0, 1, 7, 8, 9, 16, 17, 63, 64, 65, 200}) {
    for (int round = 0; round < 20; ++round) {
      const std::string tag =
          "|A|=" + std::to_string(na) + " round " + std::to_string(round);
      auto a = random_exact_set(probe_rng, na, 0, 300);
      auto b = random_draws(probe_rng, probe_rng.next_below(120), 0, 300);
      add("probe " + tag, std::move(a), std::move(b), 0, 300);
      a = random_exact_set(skew_rng, na, 0, 10000);
      b = random_draws(skew_rng, 5000, 0, 10000);
      add("skewed " + tag, std::move(a), std::move(b), 0, 10000);
    }
  }
  // Small dense sets, where the threshold sweep crosses |A ∩ B| often:
  // A and B each draw `min` ids plus up to `max - min` more from the zone.
  struct Dense {
    std::uint64_t seed;
    int rounds;
    std::size_t min, max;
    VertexId zone_bits;
  };
  for (const Dense& d : {Dense{17, 200, 30, 30, 60}, Dense{23, 300, 1, 25, 40},
                         Dense{29, 200, 0, 29, 50}, Dense{71, 150, 25, 25, 40},
                         Dense{333, 200, 0, 39, 70}}) {
    Rng rng(d.seed);
    auto draws = [&] { return d.min + rng.next_below(d.max - d.min + 1); };
    for (int round = 0; round < d.rounds; ++round) {
      auto a = random_draws(rng, draws(), 0, d.zone_bits);
      auto b = random_draws(rng, draws(), 0, d.zone_bits);
      add("dense seed " + std::to_string(d.seed) + " round " +
              std::to_string(round),
          std::move(a), std::move(b), 0, d.zone_bits);
    }
  }
  return cases;
}

TEST(IntersectScans, EveryKernelQueryAndExitMatchesReference) {
  for (const Case& c : all_cases()) check_case(c);
}

}  // namespace
}  // namespace lazymc

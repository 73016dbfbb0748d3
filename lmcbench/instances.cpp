#include "instances.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/builder.hpp"
#include "graph/suite.hpp"
#include "support/random.hpp"

namespace lmcbench {
namespace {

using lazymc::Graph;
using lazymc::GraphBuilder;
using lazymc::VertexId;

/// g with its vertex ids shuffled by a permutation drawn from `seed`.
Graph relabel(const Graph& g, std::uint64_t seed) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  lazymc::Rng rng(seed);
  for (VertexId i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : g.neighbors(v)) {
      if (v < u) b.add_edge(perm[v], perm[u]);
    }
  }
  return b.build();
}

/// Suite instances in suite order, minus those in `a` and `b`.
std::vector<std::string> all_but(const std::vector<std::string>& a,
                                 const std::vector<std::string>& b) {
  std::vector<std::string> names = lazymc::suite::instance_names();
  std::erase_if(names, [&](const std::string& n) {
    return std::ranges::find(a, n) != a.end() ||
           std::ranges::find(b, n) != b.end();
  });
  return names;
}

const std::vector<Workload>& workloads() {
  static const std::vector<std::string> kDenseBio = {
      "WormNet", "HS-CX", "mouse", "human-1", "human-2"};
  static const std::vector<std::string> kSocialVc = {
      "LiveJournal", "flickr", "pokec", "orkut"};
  static const std::vector<Workload> kWorkloads = {
      // The degree heuristic takes ~86% of the solve, so the bitset
      // heuristic rewrite must show here; k-VC is only ~7%, so a k-VC
      // change should leave it flat.
      {"dense-bio", false, 2, kDenseBio},
      // Systematic search takes ~97%: k-VC ~87%, filters ~7%, MC B&B ~3%
      // (almost all from pokec).  k-VC, filter and scheduler changes show
      // here.  It also covers the store layer and adopt_prebuilt_rows, and
      // skips k-core and lazy row builds.  Its rounds are the longest, so
      // one replica buys more of them.
      {"social-vc", true, 1, kSocialVc},
      // The degree heuristic (~67%) works on hubs and sparse candidate
      // sets instead of dense blocks, so a dense-bio gain that costs hub
      // vertices shows here.  Parse, k-core and ordering, must-subgraph
      // and filters are visible only here.
      {"sparse-web", false, 2, all_but(kDenseBio, kSocialVc)},
  };
  return kWorkloads;
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Graph make_instance(const std::string& name, std::uint64_t seed,
                    unsigned replica) {
  Graph g = lazymc::suite::make_instance(name, lazymc::suite::Scale::kMedium)
                .graph;
  if (seed == 0 && replica == 0) return g;
  // One permutation per (seed, replica, instance).
  std::uint64_t state = seed * 1000003 + replica;
  for (char c : name) state = state * 131 + static_cast<unsigned char>(c);
  return relabel(g, lazymc::splitmix64(state));
}

}  // namespace lmcbench

// Differential mutation test for the text readers: generated DIMACS and
// edge-list texts, mutated by seeded byte flips, truncations and line
// splices, must load to the same CSR bytes — or fail with the same error
// kind and message, line number included — on a 1-thread and a 4-thread
// pool.  The inputs are large enough that four participants each parse
// their own chunk, so a cut, a line count or an error order that depends
// on the participant count shows up as a mismatch.  Seeded and
// time-bounded: the 1-thread pass runs kMinCases, then more up to
// kMaxCases while kBudget lasts, and the 4-thread pass replays them.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

namespace lazymc {
namespace {

constexpr std::size_t kMinCases = 24;
constexpr std::size_t kMaxCases = 240;
constexpr std::chrono::seconds kBudget{8};

struct Base {
  std::string text;
  bool dimacs;
};

/// Three generated graphs: uniform, hubs, dense blocks.
std::vector<Graph> make_graphs() {
  return {
      gen::gnp(1500, 0.03, 11),
      gen::rmat(11, 16, 0.57, 0.19, 0.19, 12),
      gen::gene_blocks(1200, 24, 60, 0.9, 13),
  };
}

/// The unmutated inputs: each graph as DIMACS and as an edge list, with
/// LF and with CRLF line ends.  Each text is a few hundred KiB.
std::vector<Base> make_bases() {
  std::vector<Base> bases;
  for (const Graph& g : make_graphs()) {
    for (bool dimacs : {true, false}) {
      std::ostringstream out;
      if (dimacs) {
        io::write_dimacs(g, out);
      } else {
        io::write_edge_list(g, out);
      }
      bases.push_back({out.str(), dimacs});
      std::string crlf;
      for (char c : out.str()) {
        if (c == '\n') crlf += '\r';
        crlf += c;
      }
      bases.push_back({crlf, dimacs});
    }
  }
  return bases;
}

/// Bytes a flip writes: the ones the readers branch on, then anything.
constexpr char kAlphabet[] = "0123456789 \t\n\r#%cpe-x";

/// Case `index`: one base text with one to four seeded mutations.
Base make_case(const std::vector<Base>& bases, std::size_t index) {
  Rng rng(0x5eed0000 + index);
  Base c = bases[rng.next_below(bases.size())];
  std::string& t = c.text;
  const std::size_t mutations = 1 + rng.next_below(4);
  for (std::size_t i = 0; i < mutations && !t.empty(); ++i) {
    const std::size_t at = rng.next_below(t.size());
    switch (rng.next_below(5)) {
      case 0:  // byte flip
        t[at] = rng.next_below(4) == 0
                    ? static_cast<char>(rng.next_below(256))
                    : kAlphabet[rng.next_below(sizeof kAlphabet - 1)];
        break;
      case 1:  // truncation
        t.resize(at);
        break;
      case 2: {  // splice: copy a run of whole lines somewhere else
        const std::size_t from = t.find('\n', at);
        if (from == std::string::npos) break;
        const std::size_t len = std::min<std::size_t>(
            t.size() - from, 1 + rng.next_below(200));
        const std::string run = t.substr(from + 1, len);
        t.insert(rng.next_below(t.size() + 1), run);
        break;
      }
      case 3: {  // splice: drop a run of bytes
        const std::size_t len =
            std::min<std::size_t>(t.size() - at, 1 + rng.next_below(64));
        t.erase(at, len);
        break;
      }
      default: {  // join two lines
        const std::size_t nl = t.find('\n', at);
        if (nl != std::string::npos) t.erase(nl, 1);
        break;
      }
    }
  }
  return c;
}

/// A hash of an array's bytes.
template <typename T>
std::size_t hash_bytes(std::span<const T> data) {
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(data.data()), data.size_bytes()));
}

/// What one load ends in: the CSR's size and a hash of its bytes, or the
/// error's kind and message.
template <typename Load>
std::string outcome(Load load) {
  try {
    const Graph g = load();
    return "graph n=" + std::to_string(g.num_vertices()) +
           " m=" + std::to_string(g.num_edges()) + " hashes=" +
           std::to_string(hash_bytes(g.offsets())) + "/" +
           std::to_string(hash_bytes(g.adjacency()));
  } catch (const Error& e) {
    return std::string("Error(") + error_kind_name(e.kind()) + "): " + e.what();
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

/// The stream reader for the case's format, then the file reader (format
/// detection and the mapped-file path).
std::string run_case(const Base& c, const std::string& path) {
  std::string result = outcome([&] {
    std::istringstream in(c.text);
    return c.dimacs ? io::read_dimacs(in) : io::read_edge_list(in);
  });
  {
    std::ofstream out(path, std::ios::binary);
    out << c.text;
  }
  return result + " | " + outcome([&] { return io::read_graph_file(path); });
}

TEST(IoFuzz, OneAndFourParticipantsAgreeOnMutatedTexts) {
  const std::vector<Base> bases = make_bases();
  const std::string path = testing::TempDir() + "/lazymc_io_fuzz.txt";

  set_num_threads(1);
  std::vector<std::string> serial;
  const auto start = std::chrono::steady_clock::now();
  while (serial.size() < kMinCases ||
         (serial.size() < kMaxCases &&
          std::chrono::steady_clock::now() - start < kBudget)) {
    serial.push_back(run_case(make_case(bases, serial.size()), path));
  }

  set_num_threads(4);
  std::size_t loaded = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const std::string parallel = run_case(make_case(bases, i), path);
    EXPECT_EQ(parallel, serial[i]) << "case " << i;
    if (serial[i].rfind("graph", 0) == 0) ++loaded;
  }
  set_num_threads(0);
  std::remove(path.c_str());

  // The mutations must leave both outcomes well represented, or the
  // comparison proves little.
  EXPECT_GT(loaded, serial.size() / 10);
  EXPECT_LT(loaded, serial.size() - serial.size() / 10);
}

TEST(IoFuzz, UnmutatedDimacsTextsLoadTheirGraphs) {
  for (std::size_t threads : {1, 4}) {
    set_num_threads(threads);
    for (const Graph& g : make_graphs()) {
      std::ostringstream out;
      io::write_dimacs(g, out);
      std::istringstream in(out.str());
      const Graph h = io::read_dimacs(in);
      EXPECT_TRUE(std::equal(g.offsets().begin(), g.offsets().end(),
                             h.offsets().begin(), h.offsets().end()));
      EXPECT_TRUE(std::equal(g.adjacency().begin(), g.adjacency().end(),
                             h.adjacency().begin(), h.adjacency().end()));
    }
  }
  set_num_threads(0);
}

}  // namespace
}  // namespace lazymc

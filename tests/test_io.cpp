// Tests for the edge-list and DIMACS readers/writers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "support/control.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace lazymc {
namespace {

TEST(IoEdgeList, ReadsSimpleList) {
  std::istringstream in("# comment\n0 1\n1 2\n% another comment\n2 0\n");
  Graph g = io::read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(IoEdgeList, ToleratesBlankAndMalformedLines) {
  std::istringstream in("\n0 1\nnot numbers\n2 3\n");
  Graph g = io::read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(IoEdgeList, RoundTrip) {
  Graph g = graph_from_edges(5, {{0, 1}, {1, 2}, {3, 4}, {0, 4}});
  std::ostringstream out;
  io::write_edge_list(g, out);
  std::istringstream in(out.str());
  Graph h = io::read_edge_list(in);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) EXPECT_TRUE(h.has_edge(v, u));
  }
}

TEST(IoDimacs, ReadsHeaderAndEdges) {
  std::istringstream in(
      "c a comment\n"
      "p edge 5 3\n"
      "e 1 2\n"
      "e 2 3\n"
      "e 4 5\n");
  Graph g = io::read_dimacs(in);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));  // 1-based -> 0-based
  EXPECT_TRUE(g.has_edge(3, 4));
}

TEST(IoDimacs, MissingProblemLineThrows) {
  std::istringstream in("e 1 2\n");
  EXPECT_THROW(io::read_dimacs(in), std::runtime_error);
}

TEST(IoDimacs, ZeroBasedIdThrows) {
  std::istringstream in("p edge 3 1\ne 0 1\n");
  EXPECT_THROW(io::read_dimacs(in), std::runtime_error);
}

TEST(IoDimacs, RoundTrip) {
  Graph g = graph_from_edges(4, {{0, 1}, {2, 3}, {1, 2}});
  std::ostringstream out;
  io::write_dimacs(g, out);
  std::istringstream in(out.str());
  Graph h = io::read_dimacs(in);
  EXPECT_EQ(h.num_vertices(), 4u);
  EXPECT_EQ(h.num_edges(), 3u);
  EXPECT_TRUE(h.has_edge(1, 2));
}

TEST(IoDimacs, IsolatedTrailingVerticesSurvive) {
  // "p edge 7 1" declares 7 vertices even though only 2 touch edges.
  std::istringstream in("p edge 7 1\ne 1 2\n");
  Graph g = io::read_dimacs(in);
  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.degree(6), 0u);
}

// A vertex count is bounded by the text's size, max(2^22, 8 x bytes), so
// a few bytes cannot make the loader allocate gigabytes.
TEST(IoVertexLimit, DimacsHeaderOverTheLimitThrows) {
  const std::string text = "p edge 1500000000 0\n";
  std::istringstream in(text);
  try {
    io::read_dimacs(in);
    FAIL() << "no error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "lazymc::io: DIMACS header declares 1500000000 vertices, "
                 "over the limit 4194304 for a 20-byte text "
                 "(max(2^22, 8 x bytes)) (line 1)");
  }
  // At the limit the header loads (isolated vertices).
  std::istringstream at("p edge 4194304 0\n");
  EXPECT_EQ(io::read_dimacs(at).num_vertices(), 4194304u);
}

TEST(IoVertexLimit, EdgeListIdOverTheLimitThrows) {
  std::istringstream in("0 1\n1 1500000000\n");
  try {
    io::read_edge_list(in);
    FAIL() << "no error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "lazymc::io: edge-list vertex id 1500000000 implies "
                 "1500000001 vertices, over the limit 4194304 for a "
                 "17-byte text (max(2^22, 8 x bytes)) (line 2)");
  }
  // The limit grows with the text: 8 x bytes past 2^22.
  std::string big(600000, '#');
  big += "\n0 4799999\n";
  std::istringstream in_big(big);
  EXPECT_EQ(io::read_edge_list(in_big).num_vertices(), 4800000u);
}

TEST(IoFiles, AutoDetectAndFileRoundTrip) {
  Graph g = graph_from_edges(6, {{0, 5}, {1, 4}, {2, 3}, {0, 1}});
  std::string edge_path = testing::TempDir() + "/lazymc_io_test.edges";
  std::string dimacs_path = testing::TempDir() + "/lazymc_io_test.clq";
  io::write_edge_list_file(g, edge_path);
  io::write_dimacs_file(g, dimacs_path);

  Graph from_edges = io::read_graph_file(edge_path);
  Graph from_dimacs = io::read_graph_file(dimacs_path);
  EXPECT_EQ(from_edges.num_edges(), g.num_edges());
  EXPECT_EQ(from_dimacs.num_edges(), g.num_edges());
  EXPECT_EQ(from_dimacs.num_vertices(), g.num_vertices());

  std::remove(edge_path.c_str());
  std::remove(dimacs_path.c_str());
}

TEST(IoFiles, MissingFileThrows) {
  EXPECT_THROW(io::read_graph_file("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

// A pending SIGINT/SIGTERM must abort a long parse promptly (the readers
// poll the interrupt flag every few thousand lines), not after the whole
// file has been consumed.
TEST(IoInterrupt, EdgeListLoadObservesPendingInterrupt) {
  std::ostringstream big;
  for (int i = 0; i < 20000; ++i) big << i << " " << (i + 1) << "\n";
  interrupt::request();
  std::istringstream in(big.str());
  try {
    io::read_edge_list(in);
    interrupt::clear();
    FAIL() << "expected Error(kInterrupted)";
  } catch (const Error& e) {
    interrupt::clear();
    EXPECT_EQ(e.kind(), ErrorKind::kInterrupted);
  }
}

TEST(IoInterrupt, DimacsLoadObservesPendingInterrupt) {
  std::ostringstream big;
  big << "p edge 20001 20000\n";
  for (int i = 1; i <= 20000; ++i) big << "e " << i << " " << (i + 1) << "\n";
  interrupt::request();
  std::istringstream in(big.str());
  try {
    io::read_dimacs(in);
    interrupt::clear();
    FAIL() << "expected Error(kInterrupted)";
  } catch (const Error& e) {
    interrupt::clear();
    EXPECT_EQ(e.kind(), ErrorKind::kInterrupted);
  }
}

TEST(IoInterrupt, ShortLoadsIgnoreTheStride) {
  // Under the poll stride no check fires: tiny graphs always load, even
  // with a pending interrupt (the solve's own control observes it next).
  interrupt::request();
  std::istringstream in("0 1\n1 2\n");
  Graph g = io::read_edge_list(in);
  interrupt::clear();
  EXPECT_EQ(g.num_edges(), 2u);
}

// --- chunked parallel load ----------------------------------------------
//
// A text of at least four 64 KiB grains is cut at newlines into one chunk
// per pool participant.  Every test below runs on a 1- and a 4-thread
// pool and must see the same graph or the same error, line included.

class IoChunks : public testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { set_num_threads(GetParam()); }
  void TearDown() override { set_num_threads(0); }
};

INSTANTIATE_TEST_SUITE_P(Threads, IoChunks, testing::Values(1, 4),
                         [](const testing::TestParamInfo<std::size_t>& p) {
                           return "t" + std::to_string(p.param);
                         });

/// Enough bytes that a 4-thread pool cuts the text into four chunks.
constexpr std::size_t kBig = std::size_t{320} << 10;

/// "u u+1" lines (or DIMACS "e u+1 u+2") for u = 0, 1, ... until `bytes`
/// of them are written; `count` receives the number of lines.
std::string path_lines(std::size_t bytes, bool dimacs, const char* eol,
                       std::size_t& count) {
  std::string text;
  count = 0;
  for (VertexId u = 0; text.size() < bytes; ++u, ++count) {
    text += dimacs ? "e " + std::to_string(u + 1) + " " + std::to_string(u + 2)
                   : std::to_string(u) + " " + std::to_string(u + 1);
    text += eol;
  }
  return text;
}

std::string error_of(const std::string& text, bool dimacs) {
  std::istringstream in(text);
  try {
    if (dimacs) {
      io::read_dimacs(in);
    } else {
      io::read_edge_list(in);
    }
  } catch (const std::exception& e) {
    return e.what();
  }
  return "no error";
}

Graph read_text(const std::string& text, bool dimacs) {
  std::istringstream in(text);
  return dimacs ? io::read_dimacs(in) : io::read_edge_list(in);
}

void expect_path(const Graph& g, std::size_t edges) {
  ASSERT_EQ(g.num_edges(), edges);
  for (VertexId u = 0; u < edges; ++u) ASSERT_TRUE(g.has_edge(u, u + 1)) << u;
}

std::string bad_id_at(std::size_t line) {
  return "lazymc::io: edge-list vertex id 4294967295 exceeds the supported "
         "maximum 4294967294 (line " + std::to_string(line) + ")";
}

TEST_P(IoChunks, LinesStraddlingACutKeepTheirLineNumbers) {
  // Shifting the text a byte at a time walks every cut across a whole
  // line: it lands on a digit, the blank, the newline and a line start.
  std::size_t count = 0;
  const std::string body = path_lines(kBig, false, "\n", count);
  for (std::size_t pad = 0; pad < 16; ++pad) {
    const std::string text = "# " + std::string(pad, 'x') + "\n" + body;
    expect_path(read_text(text, false), count);
    EXPECT_EQ(error_of(text + "4294967295 1\n", false), bad_id_at(count + 2))
        << "pad " << pad;
  }
}

TEST_P(IoChunks, CarriageReturnAtACut) {
  // CRLF lines: some shift puts a nominal cut on the '\r', which must
  // stay with its line (no extra empty line, no lost edge).
  std::size_t count = 0;
  const std::string body = path_lines(kBig, false, "\r\n", count);
  for (std::size_t pad = 0; pad < 16; ++pad) {
    const std::string text = "# " + std::string(pad, 'x') + "\r\n" + body;
    expect_path(read_text(text, false), count);
    EXPECT_EQ(error_of(text + "4294967295 1\r\n", false),
              bad_id_at(count + 2))
        << "pad " << pad;
  }
  // A '\r' as the very last byte ends the last chunk.
  const Graph g = read_text(body + std::to_string(count) + " " +
                                std::to_string(count + 1) + "\r",
                            false);
  expect_path(g, count + 1);
}

TEST_P(IoChunks, LastLineWithoutNewline) {
  std::size_t count = 0;
  const std::string body = path_lines(kBig, false, "\n", count);
  expect_path(read_text(body + std::to_string(count) + " " +
                            std::to_string(count + 1),
                        false),
              count + 1);
  EXPECT_EQ(error_of(body + "4294967295 1", false), bad_id_at(count + 1));
}

TEST_P(IoChunks, EmptyText) {
  EXPECT_EQ(read_text("", false).num_vertices(), 0u);
  EXPECT_EQ(error_of("", true), "lazymc::io: missing DIMACS 'p' line");
  const std::string path = testing::TempDir() + "/lazymc_io_empty.txt";
  { std::ofstream out(path); }
  EXPECT_EQ(io::read_graph_file(path).num_vertices(), 0u);
  std::remove(path.c_str());
}

TEST_P(IoChunks, FewerLinesThanParticipants) {
  // Three lines, one of them most of the text: the cuts inside the long
  // line all meet at its newline, leaving empty chunks.
  const std::string text = "# " + std::string(kBig, 'x') + "\n0 1\n1 2";
  const Graph g = read_text(text, false);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(error_of(text + "\n4294967295 0", false), bad_id_at(4));
  EXPECT_EQ(read_text("0 1\n", false).num_edges(), 1u);
}

TEST_P(IoChunks, ProblemLineAfterACommentBlock) {
  std::string comments;
  std::size_t lines = 0;
  for (; comments.size() < kBig; ++lines) comments += "c filler comment\n";
  // The comment block repeats after the 'p' line, so the edges sit in
  // the last chunk, behind the header's lines and three chunks' worth.
  const std::string head = comments + "p edge 5 2\n" + comments;
  const Graph g = read_text(head + "e 1 2\ne 3 4\n", true);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(error_of(head + "e 1 2\ne 3 9\n", true),
            "lazymc::io: DIMACS edge (3, 9) exceeds the declared vertex "
            "count 5 (line " + std::to_string(2 * lines + 3) + ")");
}

TEST_P(IoChunks, DuplicateProblemLineInTheLastChunk) {
  std::size_t count = 0;
  const std::string body = path_lines(kBig, true, "\n", count);
  const std::string header = "p edge " + std::to_string(count + 1) + " " +
                             std::to_string(count) + "\n";
  expect_path(read_text(header + body, true), count);
  EXPECT_EQ(error_of(header + body + header, true),
            "lazymc::io: duplicate DIMACS 'p' line (line " +
                std::to_string(count + 2) + ")");
}

TEST_P(IoChunks, EdgeBeforeProblemLine) {
  EXPECT_EQ(error_of("c x\ne 1 2\np edge 2 1\n", true),
            "lazymc::io: DIMACS 'e' record before the 'p' line (line 2)");
  std::string comments;
  std::size_t lines = 0;
  for (; comments.size() < kBig; ++lines) comments += "c filler comment\n";
  EXPECT_EQ(error_of(comments + "e 1 2\np edge 2 1\n", true),
            "lazymc::io: DIMACS 'e' record before the 'p' line (line " +
                std::to_string(lines + 1) + ")");
}

TEST_P(IoChunks, EarliestChunkErrorWins) {
  // Errors at about 30% and 80% of the text: in chunks 1 and 3 of four.
  // Chunk 1's error comes first in the file, so it wins whichever chunk
  // finishes first.
  std::size_t count = 0;
  std::string body = path_lines(kBig, true, "\n", count);
  const std::size_t first = body.find('\n', body.size() * 3 / 10) + 1;
  const std::size_t second = body.find('\n', body.size() * 8 / 10) + 1;
  const auto line_at = [&](std::size_t pos) {
    return 2 + static_cast<std::size_t>(
                   std::count(body.begin(), body.begin() + pos, '\n'));
  };
  const std::size_t first_line = line_at(first);
  const std::size_t second_line = line_at(second) + 1;  // after the insert
  body.insert(second, "e 0 1\n");
  body.insert(first, "e 1 x\n");
  const std::string text = "p edge " + std::to_string(count + 1) + " " +
                           std::to_string(count) + "\n" + body;
  EXPECT_EQ(error_of(text, true),
            "lazymc::io: malformed DIMACS 'e' line (line " +
                std::to_string(first_line) + ")");
  // Without the first error the second one surfaces, at its own line.
  body.erase(first, 6);
  EXPECT_EQ(error_of("p edge " + std::to_string(count + 1) + " " +
                         std::to_string(count) + "\n" + body,
                     true),
            "lazymc::io: DIMACS ids are 1-based (line " +
                std::to_string(second_line - 1) + ")");
}

TEST_P(IoChunks, EdgeListIdLimitNamesItsLine) {
  std::size_t count = 0;
  const std::string body = path_lines(kBig, false, "\n", count);
  EXPECT_EQ(error_of(body + "7 4294967295\n" + body, false),
            bad_id_at(count + 1));
}

}  // namespace
}  // namespace lazymc

#include "graph/io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/builder.hpp"
#include "store/binary_graph.hpp"
#include "support/control.hpp"
#include "support/error.hpp"

namespace lazymc::io {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("lazymc::io: " + what);
}

std::string at_line(std::uint64_t line_no) {
  return " (line " + std::to_string(line_no) + ")";
}

// Cooperative interrupt check inside the read loops: SIGINT/SIGTERM
// during a multi-gigabyte load unwinds promptly (the driver maps
// ErrorKind::kInterrupted to its interrupted exit code) instead of only
// after the whole file has been parsed.  Polled every kInterruptStride
// lines of a chunk so the relaxed atomic load stays off the parse
// profile.
constexpr std::uint64_t kInterruptStride = 4096;

bool interrupt_due(std::uint64_t line_no) {
  return (line_no & (kInterruptStride - 1)) == 0 && interrupt::requested();
}

[[noreturn]] void throw_interrupted(std::uint64_t line_no) {
  throw Error(ErrorKind::kInterrupted,
              "graph load interrupted" + at_line(line_no));
}

/// Text below this many bytes per participant is parsed on fewer
/// participants; below one such grain the whole load runs inline, since a
/// pool launch costs more than parsing it.
constexpr std::size_t kMinChunkBytes = std::size_t{64} << 10;

/// Reads the rest of `in` into one buffer.
std::string slurp(std::istream& in) {
  std::string text;
  std::size_t size = 0;
  for (std::size_t block = std::size_t{1} << 20;; block *= 2) {
    text.resize(size + block);
    in.read(text.data() + size, static_cast<std::streamsize>(block));
    size += static_cast<std::size_t>(in.gcount());
    if (!in) break;
  }
  text.resize(size);
  return text;
}

#ifdef MAP_POPULATE
constexpr int kMapFlags = MAP_PRIVATE | MAP_POPULATE;
#else
constexpr int kMapFlags = MAP_PRIVATE;
#endif

/// A file's bytes: a regular file is mapped read-only and populated in
/// one call, which costs far less than copying it into fresh pages;
/// anything else (a pipe, a device) is read into memory.
class FileText {
 public:
  explicit FileText(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) fail("cannot open '" + path + "'");
    struct stat st{};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
      size_ = static_cast<std::size_t>(st.st_size);
      void* map = ::mmap(nullptr, size_, PROT_READ, kMapFlags, fd, 0);
      if (map != MAP_FAILED) map_ = static_cast<const char*>(map);
    }
    ::close(fd);
    if (!map_) {
      std::ifstream in(path, std::ios::binary);
      if (!in) fail("cannot open '" + path + "'");
      owned_ = slurp(in);
    }
  }
  ~FileText() {
    if (map_) ::munmap(const_cast<char*>(map_), size_);
  }
  FileText(const FileText&) = delete;
  FileText& operator=(const FileText&) = delete;

  std::string_view text() const {
    return map_ ? std::string_view(map_, size_) : std::string_view(owned_);
  }

 private:
  const char* map_ = nullptr;
  std::size_t size_ = 0;
  std::string owned_;
};

/// Cuts the next line off the front of `text` (at '\n', or the rest of
/// the text when no newline is left), stripping a trailing '\r' so CRLF
/// and LF copies of a file parse identically.
std::string_view next_line(std::string_view& text) {
  const auto* nl =
      static_cast<const char*>(std::memchr(text.data(), '\n', text.size()));
  const std::size_t len =
      nl ? static_cast<std::size_t>(nl - text.data()) : text.size();
  std::string_view line = text.substr(0, len);
  text.remove_prefix(nl ? len + 1 : len);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Skips spaces/tabs, then parses a decimal u64 off the front of `s`.
/// False when no digits follow (the view is left unspecified then).
bool parse_u64(std::string_view& s, std::uint64_t& out) {
  std::size_t i = 0;
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  const char* first = s.data() + i;
  const char* last = s.data() + s.size();
  const auto [p, ec] = std::from_chars(first, last, out);
  if (ec != std::errc() || p == first) return false;
  s.remove_prefix(static_cast<std::size_t>(p - s.data()));
  return true;
}

/// Skips spaces/tabs, then one whitespace-delimited token.  False when
/// the view holds nothing but blanks.
bool skip_token(std::string_view& s) {
  std::size_t i = 0;
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  const std::size_t begin = i;
  while (i < s.size() && s[i] != ' ' && s[i] != '\t') ++i;
  s.remove_prefix(i);
  return i > begin;
}

/// One participant's share of the text: its edges and lines, and the
/// first error in it.  Padded to whole cache lines, so participants
/// appending to neighbouring chunks never share one.
struct alignas(64) Chunk {
  std::string_view text;
  std::vector<Edge> edges;
  std::uint64_t lines = 0;
  /// Largest vertex id + 1 among the edges (edge lists size the graph
  /// by it).
  VertexId vertices = 0;
  /// The first error: its message without the line, at chunk-local line
  /// `error_line` (0 = none).
  std::string error;
  std::uint64_t error_line = 0;
  bool interrupted = false;
};

/// Cuts `text` at newlines into `parts` chunks of about equal size (some
/// may be empty when the text has fewer lines than parts).
std::vector<Chunk> cut_chunks(std::string_view text, std::size_t parts) {
  std::vector<Chunk> chunks(parts);
  std::size_t begin = 0;
  for (std::size_t k = 0; k < parts; ++k) {
    std::size_t end = text.size();
    if (k + 1 < parts) {
      end = std::max(begin, (k + 1) * text.size() / parts);
      const std::size_t nl = text.find('\n', end);
      end = nl == std::string_view::npos ? text.size() : nl + 1;
    }
    chunks[k].text = text.substr(begin, end - begin);
    begin = end;
  }
  return chunks;
}

/// Parses every chunk on its own participant: `parse_line(chunk, line)`
/// handles one line and returns false after recording an error in the
/// chunk, which ends that chunk.  `min_line_bytes` bounds the edges a
/// chunk can hold, so its buffer is reserved once.  Then throws the
/// error of the earliest chunk that has one, at its line in the file
/// (`first_line` is the line number of the text's first line).
template <typename ParseLine>
void parse_chunks(std::vector<Chunk>& chunks, std::uint64_t first_line,
                  std::size_t min_line_bytes, ParseLine parse_line) {
  for_each_part(chunks.size(), [&](std::size_t k) {
    Chunk& chunk = chunks[k];
    chunk.edges.reserve(chunk.text.size() / min_line_bytes + 1);
    std::string_view rest = chunk.text;
    while (!rest.empty()) {
      const std::string_view line = next_line(rest);
      ++chunk.lines;
      if (interrupt_due(chunk.lines)) {
        chunk.interrupted = true;
        chunk.error_line = chunk.lines;
        return;
      }
      if (!parse_line(chunk, line)) {
        chunk.error_line = chunk.lines;
        return;
      }
    }
  });
  std::uint64_t line_no = first_line - 1;
  for (const Chunk& chunk : chunks) {
    if (chunk.error_line != 0) {
      if (chunk.interrupted) throw_interrupted(line_no + chunk.error_line);
      fail(chunk.error + at_line(line_no + chunk.error_line));
    }
    line_no += chunk.lines;
  }
}

Graph build_chunks(VertexId n, const std::vector<Chunk>& chunks) {
  std::vector<std::span<const Edge>> parts;
  parts.reserve(chunks.size());
  for (const Chunk& chunk : chunks) parts.emplace_back(chunk.edges);
  return build_csr(n, parts);
}

/// The largest vertex count a text of `bytes` bytes may declare or
/// imply: max(2^22, 8 x bytes).  The loader allocates O(n) before it
/// reads an edge, so without a bound a few bytes ("p edge 1500000000 0",
/// or one large edge-list id) could ask for gigabytes.
std::uint64_t vertex_limit(std::size_t bytes) {
  return std::max<std::uint64_t>(std::uint64_t{1} << 22,
                                 std::uint64_t{8} * bytes);
}

std::string over_limit(std::uint64_t n, std::size_t bytes) {
  return std::to_string(n) + " vertices, over the limit " +
         std::to_string(vertex_limit(bytes)) + " for a " +
         std::to_string(bytes) + "-byte text (max(2^22, 8 x bytes))";
}

std::vector<Chunk> cut_text(std::string_view text) {
  return cut_chunks(text, load_participants(text.size(), kMinChunkBytes));
}

Graph parse_edge_list(std::string_view text) {
  // Largest representable 0-based id: the builder stores counts (id + 1)
  // in VertexId, so VertexId's max itself is off-limits too.
  constexpr std::uint64_t kMaxId = std::numeric_limits<VertexId>::max() - 1;
  const std::size_t bytes = text.size();
  const std::uint64_t limit = vertex_limit(bytes);
  std::vector<Chunk> chunks = cut_text(text);
  // The shortest edge line is "0 1\n".
  parse_chunks(chunks, 1, 4, [&](Chunk& chunk, std::string_view line) {
    if (line.empty() || line[0] == '#' || line[0] == '%') return true;
    std::uint64_t u, v;
    if (!parse_u64(line, u) || !parse_u64(line, v)) {
      return true;  // tolerate stray lines
    }
    if (u > kMaxId || v > kMaxId) {
      chunk.error = "edge-list vertex id " + std::to_string(std::max(u, v)) +
                    " exceeds the supported maximum " + std::to_string(kMaxId);
      return false;
    }
    if (std::max(u, v) >= limit) {
      chunk.error = "edge-list vertex id " + std::to_string(std::max(u, v)) +
                    " implies " + over_limit(std::max(u, v) + 1, bytes);
      return false;
    }
    chunk.edges.emplace_back(static_cast<VertexId>(u),
                             static_cast<VertexId>(v));
    chunk.vertices = std::max(
        chunk.vertices, static_cast<VertexId>(std::max(u, v) + 1));
    return true;
  });
  VertexId n = 0;
  for (const Chunk& chunk : chunks) n = std::max(n, chunk.vertices);
  return build_chunks(n, chunks);
}

Graph parse_dimacs(std::string_view text) {
  const std::size_t bytes = text.size();
  // The header, read serially: everything up to the 'p' line.
  std::uint64_t declared_n = 0, declared_m = 0;
  std::uint64_t line_no = 0;
  for (bool saw_problem = false; !saw_problem;) {
    if (text.empty()) fail("missing DIMACS 'p' line");
    const std::string_view line = next_line(text);
    ++line_no;
    if (interrupt_due(line_no)) throw_interrupted(line_no);
    if (line.empty()) continue;
    if (line[0] == 'e') {
      fail("DIMACS 'e' record before the 'p' line" + at_line(line_no));
    }
    if (line[0] != 'p') continue;  // comments and unknown records
    // "p <kind> <n> <m>"; the kind token is not validated, matching the
    // historical istream parse.
    std::string_view rest = line;
    skip_token(rest);  // the 'p'
    if (!skip_token(rest) || !parse_u64(rest, declared_n) ||
        !parse_u64(rest, declared_m)) {
      fail("malformed DIMACS 'p' line" + at_line(line_no));
    }
    if (declared_n > std::numeric_limits<VertexId>::max()) {
      fail("DIMACS vertex count " + std::to_string(declared_n) +
           " exceeds the supported maximum " +
           std::to_string(std::numeric_limits<VertexId>::max()) +
           at_line(line_no));
    }
    if (declared_n > vertex_limit(bytes)) {
      fail("DIMACS header declares " + over_limit(declared_n, bytes) +
           at_line(line_no));
    }
    saw_problem = true;
  }

  std::vector<Chunk> chunks = cut_text(text);
  // The shortest 'e' line is "e 1 2\n".
  parse_chunks(chunks, line_no + 1, 6,
               [declared_n](Chunk& chunk, std::string_view line) {
    if (line.empty()) return true;
    switch (line[0]) {
      case 'p':
        chunk.error = "duplicate DIMACS 'p' line";
        return false;
      case 'e': {
        std::string_view rest = line.substr(1);  // past the 'e'
        std::uint64_t u, v;
        if (!parse_u64(rest, u) || !parse_u64(rest, v)) {
          chunk.error = "malformed DIMACS 'e' line";
          return false;
        }
        if (u == 0 || v == 0) {
          chunk.error = "DIMACS ids are 1-based";
          return false;
        }
        if (u > declared_n || v > declared_n) {
          chunk.error = "DIMACS edge (" + std::to_string(u) + ", " +
                        std::to_string(v) +
                        ") exceeds the declared vertex count " +
                        std::to_string(declared_n);
          return false;
        }
        chunk.edges.emplace_back(static_cast<VertexId>(u - 1),
                                 static_cast<VertexId>(v - 1));
        return true;
      }
      default:
        return true;  // comments and unknown records (n, d, x, ...)
    }
  });
  std::uint64_t edge_records = 0;
  for (const Chunk& chunk : chunks) edge_records += chunk.edges.size();
  Graph g = build_chunks(static_cast<VertexId>(declared_n), chunks);
  // Wild-corpus files sometimes list both orientations or duplicate
  // records, so accept when either the raw record count or the
  // deduplicated edge count matches the header.
  if (edge_records != declared_m && g.num_edges() != declared_m) {
    fail("DIMACS header declares " + std::to_string(declared_m) +
         " edges but the file has " + std::to_string(edge_records) +
         " 'e' records (" + std::to_string(g.num_edges()) +
         " distinct edges)");
  }
  return g;
}

/// DIMACS records: 'c' comments, the 'p' problem line, or — for header-
/// less fragments — an 'e' edge record (a plain edge list line is purely
/// numeric, so a leading 'e' is unambiguous).  Routing 'e' fragments to
/// the DIMACS reader turns a silent empty graph into a clear "missing
/// 'p' line" error.
bool looks_like_dimacs(std::string_view text) {
  std::string_view line;
  while (line.empty() && !text.empty()) line = next_line(text);
  return !line.empty() &&
         (line[0] == 'c' || line[0] == 'p' ||
          (line[0] == 'e' && line.size() > 1 &&
           (line[1] == ' ' || line[1] == '\t')));
}

}  // namespace

Graph read_edge_list(std::istream& in) { return parse_edge_list(slurp(in)); }

Graph read_dimacs(std::istream& in) { return parse_dimacs(slurp(in)); }

Graph read_edge_list_file(const std::string& path) {
  return parse_edge_list(FileText(path).text());
}

Graph read_dimacs_file(const std::string& path) {
  return parse_dimacs(FileText(path).text());
}

Graph read_graph_file(const std::string& path) {
  // Binary store first: the magic is unambiguous, and the returned Graph
  // keeps the mmap'ed view alive through its keepalive, so callers that
  // only want a Graph can stay oblivious to the format.
  if (store::is_lmg_file(path)) {
    return store::BinaryGraphView::open(path)->graph();
  }
  const FileText file(path);
  const std::string_view text = file.text();
  return looks_like_dimacs(text) ? parse_dimacs(text) : parse_edge_list(text);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << "# " << g.num_vertices() << " vertices, " << g.num_edges()
      << " edges\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      if (v < u) out << v << ' ' << u << '\n';
    }
  }
}

void write_dimacs(const Graph& g, std::ostream& out) {
  out << "p edge " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      if (v < u) out << "e " << (v + 1) << ' ' << (u + 1) << '\n';
    }
  }
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail("cannot open '" + path + "' for writing");
  write_edge_list(g, out);
}

void write_dimacs_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail("cannot open '" + path + "' for writing");
  write_dimacs(g, out);
}

}  // namespace lazymc::io

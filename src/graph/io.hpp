// Graph readers/writers.
//
// Supported formats:
//  * plain edge list: one "u v" pair per line, '#' or '%' comments;
//  * DIMACS .clq / .col: "p edge N M" header, "e u v" lines (1-based).
//
// These are the formats the paper's graph corpus ships in (SNAP edge
// lists, DIMACS clique instances).  `read_graph_file` auto-detects by content.
//
// A text loads in parallel on the global pool: files are mapped and
// streams read into one buffer, which is cut at newlines into one chunk
// per participant.  Graphs and error messages (line numbers included)
// are the same at every pool size.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace lazymc::io {

/// Reads a plain whitespace-separated edge list.  Lines starting with
/// '#' or '%' are comments.  Vertex ids are 0-based.  CRLF line endings
/// are accepted.  Ids beyond VertexId range throw instead of silently
/// truncating, and so does an id that implies more vertices than
/// max(2^22, 8 x the text's bytes), since the graph's O(n) arrays would
/// dwarf the text.  That refuses sparse ids too (a small sample of a
/// large graph that keeps its original ids): renumber them densely.
Graph read_edge_list(std::istream& in);
Graph read_edge_list_file(const std::string& path);

/// Reads a DIMACS "p edge" file ("c" comments, "e u v" edges, 1-based
/// ids).  CRLF line endings are accepted.  Throws std::runtime_error on a
/// missing/duplicate/misplaced 'p' line, ids outside [1, n], a vertex
/// count beyond VertexId range or above max(2^22, 8 x the text's bytes)
/// (as for edge lists), or an edge count that disagrees with the
/// header (both the raw 'e' record count and the deduplicated edge count
/// are tried, so files listing both orientations still load).  Isolated
/// vertices declared by the header but untouched by any 'e' record are
/// preserved.
Graph read_dimacs(std::istream& in);
Graph read_dimacs_file(const std::string& path);

/// Auto-detects the format by content: `.lmg` binary stores (magic
/// bytes; the returned Graph keeps the mmap alive via its keepalive),
/// DIMACS (leading 'c'/'p'/'e' records), else plain edge list.
Graph read_graph_file(const std::string& path);

/// Writers (useful for exporting the synthetic suite).
void write_edge_list(const Graph& g, std::ostream& out);
void write_dimacs(const Graph& g, std::ostream& out);
void write_edge_list_file(const Graph& g, const std::string& path);
void write_dimacs_file(const Graph& g, const std::string& path);

}  // namespace lazymc::io

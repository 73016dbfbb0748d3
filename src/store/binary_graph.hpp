// The binary graph store: zero-parse mmap'ed graphs.
//
// `write_lmg` serializes a Graph — plus the (coreness, degree) order,
// the exact coreness array, and optionally prebuilt packed bitset zone
// rows — into the `.lmg` format (format.hpp).  `BinaryGraphView::open`
// mmaps such a file read-only, validates it end to end (magic, version,
// header/table/section checksums, section bounds, CSR structure), posts
// madvise hints (MADV_WILLNEED for the sequential arrays, MADV_RANDOM
// for the row zone), and exposes:
//
//   * a Graph whose CSR spans point straight into the mapping (the view
//     handle rides along as the Graph's keepalive, so the Graph — and
//     any copy — can outlive the handle the caller holds);
//   * the stored vertex order / coreness / degeneracy, ready to slot
//     into LazyMC's preprocessing seam (mc::PrebuiltGraph), skipping
//     the k-core and ordering phases entirely;
//   * a PrebuiltRows view over the mmap'ed row section for
//     LazyGraph::adopt_prebuilt_rows — bitset rows come straight off
//     the page cache instead of being rebuilt by the lazy graph.
//
// Because the mapping is read-only and file-backed, every process that
// opens the same `.lmg` shares clean pages: a second daemon (or a
// benchmark sweep re-running the same instance) pays page-cache hits,
// not I/O, and never duplicates the graph in RAM.
//
// Failure model: every validation failure throws Error(ErrorKind::kInput)
// with a message naming what was wrong — a truncated or bit-flipped file
// is reported structurally, never dereferenced past the mapping.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "intersect/bitset_row.hpp"
#include "kcore/order.hpp"
#include "store/format.hpp"

namespace lazymc::store {

/// Preprocessing results to serialize alongside the CSR arrays.
/// `order` / `coreness` are required (the converter always computes
/// them; they are what make the store a preprocessed graph rather than
/// a compressed one).  Rows are optional.
struct LmgBuildData {
  const kcore::VertexOrder* order = nullptr;
  /// Exact coreness by *original* vertex id (the stored decomposition
  /// must stay valid for any future incumbent).
  const std::vector<VertexId>* coreness = nullptr;
  VertexId degeneracy = 0;
  /// When true, pack a bitset row for every relabelled vertex whose
  /// coreness is >= rows_omega (the zone of interest a solve with that
  /// incumbent would fix).  rows_omega == 0 stores no rows even when
  /// with_rows is set (a zone covering isolated vertices is useless).
  bool with_rows = false;
  VertexId rows_omega = 0;
};

/// Serializes g (+ data) to `path`.  Throws Error(kInput) on I/O failure.
void write_lmg(const Graph& g, const LmgBuildData& data,
               const std::string& path);

/// True when `path` exists and starts with the `.lmg` magic bytes.
/// Never throws — unreadable files simply report false (the text readers
/// then produce their usual errors).
bool is_lmg_file(const std::string& path);

class BinaryGraphView : public std::enable_shared_from_this<BinaryGraphView> {
 public:
  /// Maps and fully validates `path`.  Throws Error(kInput) on any
  /// malformed, truncated, or corrupt content; Error(kResource) when the
  /// OS refuses the mapping.
  static std::shared_ptr<BinaryGraphView> open(const std::string& path);

  BinaryGraphView(const BinaryGraphView&) = delete;
  BinaryGraphView& operator=(const BinaryGraphView&) = delete;
  ~BinaryGraphView();

  /// Zero-copy CSR view into the mapping.  The returned Graph holds this
  /// view as its keepalive, so it (and copies) may outlive the caller's
  /// handle.
  Graph graph() const;

  bool has_order() const { return (header_.flags & kFlagHasOrder) != 0; }
  bool has_rows() const { return (header_.flags & kFlagHasRows) != 0; }

  /// Stored (coreness, degree) order.  Only valid when has_order().
  const kcore::VertexOrder& order() const { return order_; }
  /// Stored exact coreness by original id.  Only valid when has_order().
  const std::vector<VertexId>& coreness() const { return coreness_; }
  VertexId degeneracy() const { return header_.degeneracy; }

  /// View over the mmap'ed row section; !valid() when has_rows() is
  /// false.  Lifetime: valid as long as this view is alive (callers that
  /// hand rows to a LazyGraph must keep the view's shared_ptr).
  PrebuiltRows rows() const;

  VertexId zone_begin() const { return header_.zone_begin; }
  VertexId zone_size() const { return header_.zone_bits; }
  std::uint64_t file_bytes() const { return map_size_; }

 private:
  BinaryGraphView() = default;

  void validate_and_index(const std::string& path);
  const unsigned char* section(SectionKind kind, std::uint64_t* size) const;

  void* map_ = nullptr;
  std::uint64_t map_size_ = 0;
  FileHeader header_{};
  std::vector<SectionEntry> sections_;
  // O(n) copies out of the mapping: these feed std::vector-shaped seams
  // (kcore::VertexOrder, the coreness argument of LazyGraph).  The big
  // payloads — CSR arrays and rows — stay zero-copy.
  kcore::VertexOrder order_;
  std::vector<VertexId> coreness_;
};

}  // namespace lazymc::store

#include "graph/builder.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace lazymc {
namespace {

/// Edges per participant below which a build stays on fewer threads.
constexpr std::size_t kMinEdgesPerPart = std::size_t{1} << 14;
/// Slots (participants x vertices) below which the offset scan runs
/// serially: two launches cost more than scanning that much.
constexpr std::size_t kSerialScanSlots = std::size_t{1} << 16;
/// Arcs a sort-and-dedup claim should cover, so a claim's grain follows
/// the row lengths: dense rows are claimed a few at a time, sparse ones
/// by the thousand.
constexpr std::size_t kSortArcsPerClaim = std::size_t{1} << 13;

/// The built arrays, allocated without zero-filling (every slot is
/// written exactly once); the Graph keeps them alive.
struct CsrStorage {
  std::unique_ptr<EdgeId[]> offsets;
  std::unique_ptr<VertexId[]> adjacency;
};

}  // namespace

std::size_t load_participants(std::size_t units, std::size_t min_units) {
  ThreadPool& pool = thread_pool();
  if (pool.in_worker()) return 1;
  return std::clamp<std::size_t>(units / std::max<std::size_t>(min_units, 1),
                                 1, pool.num_threads());
}

Graph build_csr(VertexId n, std::span<const std::span<const Edge>> parts) {
  if (parts.empty()) {
    const std::span<const Edge> none;
    return build_csr(n, {&none, 1});
  }
  const std::size_t rows = n;
  std::size_t edges = 0;
  for (const std::span<const Edge> part : parts) edges += part.size();
  // Participant w counts and scatters a run of consecutive parts with
  // rows slots of its own, so use only as many as the arcs pay for: the
  // slots stay within a small multiple of the edge buffers even when a
  // header declares far more vertices than the file has edges.
  const std::size_t workers = std::clamp<std::size_t>(
      4 * edges / std::max<std::size_t>(rows, 1), 1, parts.size());
  const auto edges_of = [&](std::size_t w, auto&& visit) {
    for (std::size_t k = w * parts.size() / workers;
         k < (w + 1) * parts.size() / workers; ++k) {
      for (auto [u, v] : parts[k]) {
        if (u != v) visit(u, v);
      }
    }
  };
  // slot[w * rows + v]: first the arcs participant w adds to row v, then
  // (after the scan) where its next arc of row v goes.  Participant w's
  // arcs of a row follow those of participants before it, as in a serial
  // pass.
  auto slot = std::make_unique_for_overwrite<EdgeId[]>(workers * rows);
  for_each_part(workers, [&](std::size_t w) {
    EdgeId* count = slot.get() + w * rows;
    std::fill(count, count + rows, EdgeId{0});
    edges_of(w, [count](VertexId u, VertexId v) {
      ++count[u];
      ++count[v];
    });
  });

  auto storage = std::make_shared<CsrStorage>();
  storage->offsets = std::make_unique_for_overwrite<EdgeId[]>(rows + 1);
  EdgeId* offsets = storage->offsets.get();
  // Turns rows [lo, hi)'s counts into offsets and participant cursors,
  // starting at arc `arc`.
  const auto scan = [&](std::size_t lo, std::size_t hi, EdgeId arc) {
    for (std::size_t v = lo; v < hi; ++v) {
      offsets[v] = arc;
      for (std::size_t w = 0; w < workers; ++w) {
        EdgeId& s = slot[w * rows + v];
        const EdgeId count = s;
        s = arc;
        arc += count;
      }
    }
    return arc;
  };
  if (workers * rows <= kSerialScanSlots) {
    offsets[rows] = scan(0, rows, 0);
  } else {
    // Block b of the rows belongs to participant b: sum the blocks, scan
    // the sums, then scan every block from its base.
    const auto block = [&](std::size_t b) { return b * rows / workers; };
    std::vector<EdgeId> base(workers + 1, 0);
    for_each_part(workers, [&](std::size_t b) {
      EdgeId sum = 0;
      for (std::size_t i = 0; i < workers; ++i) {
        const EdgeId* count = slot.get() + i * rows;
        for (std::size_t v = block(b); v < block(b + 1); ++v) sum += count[v];
      }
      base[b + 1] = sum;
    });
    for (std::size_t b = 0; b < workers; ++b) base[b + 1] += base[b];
    for_each_part(workers,
                  [&](std::size_t b) { scan(block(b), block(b + 1), base[b]); });
    offsets[rows] = base[workers];
  }

  storage->adjacency =
      std::make_unique_for_overwrite<VertexId[]>(offsets[rows]);
  VertexId* adjacency = storage->adjacency.get();
  for_each_part(workers, [&](std::size_t w) {
    EdgeId* cursor = slot.get() + w * rows;
    edges_of(w, [cursor, adjacency](VertexId u, VertexId v) {
      adjacency[cursor[u]++] = v;
      adjacency[cursor[v]++] = u;
    });
  });

  // Sort and deduplicate each row in place; slot[v] (free again) keeps
  // the row's distinct count when it dropped a duplicate.
  std::atomic<bool> dropped{false};
  const auto sort_row = [&](std::size_t v) {
    VertexId* lo = adjacency + offsets[v];
    VertexId* hi = adjacency + offsets[v + 1];
    std::sort(lo, hi);
    VertexId* end = std::unique(lo, hi);
    slot[v] = static_cast<EdgeId>(end - lo);
    if (end != hi) dropped.store(true, std::memory_order_relaxed);
  };
  if (workers == 1) {
    for (std::size_t v = 0; v < rows; ++v) sort_row(v);
  } else {
    const std::size_t arcs = std::max<EdgeId>(offsets[rows], 1);
    const std::size_t grain = std::clamp<std::size_t>(
        kSortArcsPerClaim * rows / arcs, 1,
        std::max<std::size_t>(rows / (4 * workers), 1));
    thread_pool().parallel_for(0, rows, sort_row, grain,
                               Launch::kInlineIfBusy);
  }

  // Compact only when some row dropped a duplicate.  Rows move left, so
  // one in-order pass can copy in place.
  if (dropped.load(std::memory_order_relaxed)) {
    EdgeId write = 0;
    for (std::size_t v = 0; v < rows; ++v) {
      const EdgeId lo = offsets[v];
      std::copy(adjacency + lo, adjacency + lo + slot[v], adjacency + write);
      offsets[v] = write;
      write += slot[v];
    }
    offsets[rows] = write;
  }
  const std::span<const EdgeId> offset_span(offsets, rows + 1);
  const std::span<const VertexId> adjacency_span(adjacency, offsets[rows]);
  return Graph(offset_span, adjacency_span, std::move(storage));
}

Graph GraphBuilder::build() const {
  const std::size_t num_parts =
      load_participants(edges_.size(), kMinEdgesPerPart);
  std::vector<std::span<const Edge>> parts;
  parts.reserve(num_parts);
  const std::span<const Edge> all(edges_);
  for (std::size_t p = 0; p < num_parts; ++p) {
    const std::size_t lo = p * all.size() / num_parts;
    const std::size_t hi = (p + 1) * all.size() / num_parts;
    parts.push_back(all.subspan(lo, hi - lo));
  }
  return build_csr(n_, parts);
}

Graph graph_from_edges(VertexId num_vertices, const std::vector<Edge>& edges) {
  GraphBuilder b(num_vertices);
  for (auto [u, v] : edges) b.add_edge(u, v);
  return b.build();
}

}  // namespace lazymc

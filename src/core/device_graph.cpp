#include "core/device_graph.hpp"

namespace rdbs::core {

using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

namespace {

DeviceCsrBuffers upload_rows(gpusim::GpuSim& sim, const graph::Csr& csr,
                             VertexId first, VertexId last,
                             EdgeIndex min_edge_slots) {
  const auto& offsets = csr.row_offsets();
  const EdgeIndex base = offsets[first];
  const EdgeIndex m = offsets[last] - base;
  DeviceCsrBuffers bufs;
  bufs.row_offsets =
      sim.alloc<EdgeIndex>("row_offsets", last - first + 1, kDeviceWord);
  bufs.adjacency = sim.alloc<VertexId>(
      "adjacency", std::max(m, min_edge_slots), kDeviceWord);
  bufs.weights =
      sim.alloc<Weight>("weights", std::max(m, min_edge_slots), kDeviceWord);
  for (VertexId v = first; v <= last; ++v) {
    bufs.row_offsets[v - first] = offsets[v] - base;
  }
  std::copy(csr.adjacency().begin() + static_cast<std::ptrdiff_t>(base),
            csr.adjacency().begin() + static_cast<std::ptrdiff_t>(base + m),
            bufs.adjacency.data().begin());
  std::copy(csr.weights().begin() + static_cast<std::ptrdiff_t>(base),
            csr.weights().begin() + static_cast<std::ptrdiff_t>(base + m),
            bufs.weights.data().begin());
  // The CSR arrays are an H2D upload and immutable for the buffers'
  // lifetime: mark them initialized and read-only so gsan flags any kernel
  // that stores into them (they may be shared across query streams).
  sim.mark_initialized(bufs.row_offsets);
  sim.mark_initialized(bufs.adjacency);
  sim.mark_initialized(bufs.weights);
  sim.mark_read_only(bufs.row_offsets);
  sim.mark_read_only(bufs.adjacency);
  sim.mark_read_only(bufs.weights);
  return bufs;
}

}  // namespace

DeviceCsrBuffers DeviceCsrBuffers::upload(gpusim::GpuSim& sim,
                                          const graph::Csr& csr) {
  return upload_rows(sim, csr, 0, csr.num_vertices(), 0);
}

DeviceCsrBuffers DeviceCsrBuffers::upload(gpusim::GpuSim& sim,
                                          const graph::Csr& csr,
                                          VertexId first, VertexId last) {
  return upload_rows(sim, csr, first, last, 1);
}

RowBounds load_row_bounds(gpusim::WarpCtx& ctx, const DeviceCsrBuffers& graph,
                          std::span<const std::uint64_t> vertices) {
  const std::size_t lanes = vertices.size();
  std::array<std::uint64_t, 32> next{};
  for (std::size_t i = 0; i < lanes; ++i) next[i] = vertices[i] + 1;
  RowBounds rows;
  ctx.load(graph.row_offsets, vertices,
           std::span<EdgeIndex>(rows.begin.data(), lanes));
  ctx.load(graph.row_offsets,
           std::span<const std::uint64_t>(next.data(), lanes),
           std::span<EdgeIndex>(rows.end.data(), lanes));
  return rows;
}

void append_edge_chunks(std::vector<EdgeChunk>& out, VertexId vertex,
                        EdgeIndex begin, EdgeIndex end) {
  for (EdgeIndex e = begin; e < end; e += 32) {
    out.push_back({vertex, e, std::min<EdgeIndex>(e + 32, end)});
  }
}

void load_edges(gpusim::WarpCtx& ctx, const DeviceCsrBuffers& graph,
                std::span<const std::uint64_t> edges, EdgeLanes& out) {
  const std::size_t lanes = edges.size();
  out.count = static_cast<std::uint32_t>(lanes);
  ctx.load(graph.adjacency, edges, std::span<VertexId>(out.dst.data(), lanes));
  ctx.load(graph.weights, edges, std::span<Weight>(out.weight.data(), lanes));
}

EdgeLanes load_edge_chunk(gpusim::WarpCtx& ctx, const DeviceCsrBuffers& graph,
                          EdgeIndex first, std::uint32_t count) {
  std::array<std::uint64_t, 32> eidx{};
  for (std::uint32_t i = 0; i < count; ++i) eidx[i] = first + i;
  EdgeLanes chunk;
  load_edges(ctx, graph, std::span<const std::uint64_t>(eidx.data(), count),
             chunk);
  return chunk;
}

}  // namespace rdbs::core

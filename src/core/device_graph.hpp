// Device-resident CSR arrays and the warp building blocks every GPU engine
// shares.
//
// The graph topology (row offsets, adjacency, weights) is immutable during
// SSSP, so one uploaded copy can back any number of engines running on the
// same simulator — the batch query engine's "shared caching": every
// stream's loads touch the same simulated device addresses, so a hot graph
// region cached by one query serves the next. Mutable per-query state
// (distances, queues, heavy-offset mirrors) stays per engine.
//
// The helpers below are the steps the engines repeat: the vertex-parallel
// fill kernel, the row-bound gathers, the thread-per-vertex lockstep edge
// loop and the 32-edge chunk load. One copy of each charges the same warp
// instructions in every engine, so engine comparisons differ only where the
// algorithms do.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

// Device element size of the 32-bit arrays (row offsets, vertex ids,
// weights, distances): the CUDA layout the paper's engines use.
inline constexpr std::uint32_t kDeviceWord = 4;

struct DeviceCsrBuffers {
  gpusim::Buffer<graph::EdgeIndex> row_offsets;
  gpusim::Buffer<graph::VertexId> adjacency;
  gpusim::Buffer<graph::Weight> weights;

  // Allocates the three arrays on `sim` and copies `csr` in (uncosted: the
  // paper's timings exclude H2D transfer). `csr` need not outlive the result.
  static DeviceCsrBuffers upload(gpusim::GpuSim& sim, const graph::Csr& csr);
  // The rows of vertices [first, last) only (a multi-GPU shard): offsets are
  // rebased to the shard's first edge, and the edge arrays hold at least one
  // element even for an edgeless shard.
  static DeviceCsrBuffers upload(gpusim::GpuSim& sim, const graph::Csr& csr,
                                 graph::VertexId first, graph::VertexId last);
};

// One buffer of a fill kernel and the value stored into every element.
template <typename T>
struct Fill {
  gpusim::Buffer<T>& buffer;
  T value;
};
template <typename T>
Fill(gpusim::Buffer<T>&, std::type_identity_t<T>) -> Fill<T>;

namespace detail {
template <typename T>
void store_fill(gpusim::WarpCtx& ctx, std::span<const std::uint64_t> lanes,
                const Fill<T>& fill) {
  std::array<T, 32> values;
  values.fill(fill.value);
  ctx.store(fill.buffer, lanes,
            std::span<const T>(values.data(), lanes.size()));
}
}  // namespace detail

// Vertex-parallel initialization kernel: one static-schedule warp per 32
// consecutive indices of [0, count) (8 warps per block), each issuing one
// coalesced store per buffer, in argument order.
template <typename... T>
void fill_kernel(gpusim::GpuSim& sim, std::string_view label,
                 std::uint64_t count, gpusim::StreamId stream,
                 Fill<T>... fills) {
  sim.label_next_launch(label);
  sim.run_kernel(
      gpusim::Schedule::kStatic, (count + 31) / 32, /*warps_per_block=*/8,
      [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
        const std::uint64_t begin = w * 32;
        const auto lanes = static_cast<std::size_t>(
            std::min<std::uint64_t>(32, count - begin));
        std::array<std::uint64_t, 32> idx{};
        for (std::size_t i = 0; i < lanes; ++i) idx[i] = begin + i;
        const std::span<const std::uint64_t> is(idx.data(), lanes);
        (detail::store_fill(ctx, is, fills), ...);
      },
      /*host_launch=*/true, stream);
}

// CSR row ranges [begin, end) of up to 32 lanes.
struct RowBounds {
  std::array<graph::EdgeIndex, 32> begin{};
  std::array<graph::EdgeIndex, 32> end{};
};

// Gathers row_offsets[v] and then row_offsets[v + 1] for every lane's
// vertex: two warp loads.
RowBounds load_row_bounds(gpusim::WarpCtx& ctx, const DeviceCsrBuffers& graph,
                          std::span<const std::uint64_t> vertices);

// Destinations and weights of up to 32 edges, one per lane.
struct EdgeLanes {
  std::uint32_t count = 0;
  std::array<graph::VertexId, 32> dst{};
  std::array<graph::Weight, 32> weight{};
};

// Gathers the adjacency and then the weights of `edges` (one per lane).
void load_edges(gpusim::WarpCtx& ctx, const DeviceCsrBuffers& graph,
                std::span<const std::uint64_t> edges, EdgeLanes& out);

// At most 32 consecutive edges [begin, end) of one vertex's row: the unit of
// edge-balanced work, one warp per chunk.
struct EdgeChunk {
  graph::VertexId vertex;
  graph::EdgeIndex begin, end;
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(end - begin);
  }
};

// Splits the row range [begin, end) of `vertex` into 32-edge chunks.
void append_edge_chunks(std::vector<EdgeChunk>& out, graph::VertexId vertex,
                        graph::EdgeIndex begin, graph::EdgeIndex end);

// Edge-balanced mapping: the `count` (<= 32) consecutive edges starting at
// `first`, loaded fully coalesced.
EdgeLanes load_edge_chunk(gpusim::WarpCtx& ctx, const DeviceCsrBuffers& graph,
                          graph::EdgeIndex first, std::uint32_t count);

// One step of a lockstep edge loop: edge i belongs to row lane owner[i].
struct LockstepStep : EdgeLanes {
  std::array<std::uint32_t, 32> owner{};
};

// Thread-per-vertex mapping: step s gathers edge begin + s of every lane
// whose row still has one, so the warp runs until its longest row is done.
// `visit(step)` runs after each step's edge loads. Lanes with end == begin
// sit out the whole loop.
template <typename Visit>
void for_each_lockstep_edge(gpusim::WarpCtx& ctx,
                            const DeviceCsrBuffers& graph,
                            const RowBounds& rows, std::uint32_t lanes,
                            Visit&& visit) {
  graph::EdgeIndex steps = 0;
  for (std::uint32_t i = 0; i < lanes; ++i) {
    steps = std::max(steps, rows.end[i] - rows.begin[i]);
  }
  for (graph::EdgeIndex s = 0; s < steps; ++s) {
    std::array<std::uint64_t, 32> eidx{};
    LockstepStep step;
    for (std::uint32_t i = 0; i < lanes; ++i) {
      if (rows.begin[i] + s < rows.end[i]) {
        eidx[step.count] = rows.begin[i] + s;
        step.owner[step.count] = i;
        ++step.count;
      }
    }
    load_edges(ctx, graph,
               std::span<const std::uint64_t>(eidx.data(), step.count), step);
    visit(step);
  }
}

}  // namespace rdbs::core

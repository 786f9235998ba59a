// The device record every GPU engine runs on, its device-resident CSR
// arrays, and the warp building blocks every engine shares.
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
#include <memory>
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

// The device an engine attempt runs on, in one of two forms:
//  * owned: a fresh simulator with the graph uploaded (optionally only the
//    rows of a MultiGpu shard). Only this form applies the gsan and gfi
//    settings, and run_with_recovery resets it before every attempt (the
//    paper's single-query methodology);
//  * shared: one stream of another record's simulator, reading that
//    record's CSR (the batch lanes' "shared caching"). It is never reset;
//    its attempts are metered as deltas of its stream.
// Either way it is the unit AttemptContext::attach meters.
class EngineDevice {
 public:
  EngineDevice(gpusim::DeviceSpec spec, const graph::Csr& csr,
               gpusim::SanitizeMode sanitize = gpusim::SanitizeMode::kOff,
               const gpusim::FaultConfig& fault = {});
  // Uploads only the rows of vertices [first, last) (see
  // DeviceCsrBuffers::upload).
  EngineDevice(gpusim::DeviceSpec spec, const graph::Csr& csr,
               graph::VertexId first, graph::VertexId last,
               gpusim::SanitizeMode sanitize,
               const gpusim::FaultConfig& fault);

  // The shared form on `stream` of this record's simulator, which must
  // outlive it.
  EngineDevice lane(gpusim::StreamId stream) const;

  gpusim::GpuSim& sim() const { return *sim_; }
  gpusim::StreamId stream() const { return stream_; }
  const DeviceCsrBuffers& graph() const { return *graph_; }
  bool owned() const { return owned_sim_ != nullptr; }

 private:
  EngineDevice(gpusim::DeviceSpec spec, gpusim::SanitizeMode sanitize,
               const gpusim::FaultConfig& fault);
  EngineDevice() = default;

  std::unique_ptr<gpusim::GpuSim> owned_sim_;             // owned form only
  std::unique_ptr<const DeviceCsrBuffers> owned_graph_;  // owned form only
  gpusim::GpuSim* sim_ = nullptr;
  const DeviceCsrBuffers* graph_ = nullptr;
  gpusim::StreamId stream_ = 0;
};

// A buffer and the value a fill or seed kernel stores into it.
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

// Vertex-parallel initialization kernel on the device's stream: one
// static-schedule warp per 32 consecutive indices of [0, count) (8 warps per
// block), each issuing one coalesced store per buffer, in argument order.
template <typename... T>
void fill_kernel(const EngineDevice& device, std::string_view label,
                 std::uint64_t count, Fill<T>... fills) {
  device.sim().label_next_launch(label);
  device.sim().run_kernel(
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
      /*host_launch=*/true, device.stream());
}

// The one-thread "seed_source" kernel on the device's stream: stores each
// fill's value at `index`, in argument order.
template <typename... T>
void seed_kernel(const EngineDevice& device, std::uint64_t index,
                 Fill<T>... fills) {
  device.sim().label_next_launch("seed_source");
  device.sim().run_kernel(
      gpusim::Schedule::kStatic, 1, 1,
      [&](gpusim::WarpCtx& ctx, std::uint64_t) {
        (ctx.store_one(fills.buffer, index, fills.value), ...);
      },
      /*host_launch=*/true, device.stream());
}

// Warm start (docs/serving.md "Result cache"): overwrites the tentative
// distances with the finite entries of `bounds` (one per vertex, engine
// numbering; null = none) and charges one H2D copy of them. The source
// keeps its exact 0. Exact for any label-correcting engine: relaxations
// only ever improve on a valid upper bound. Returns the vertices seeded.
std::uint64_t seed_upper_bounds(const EngineDevice& device,
                                gpusim::Buffer<graph::Distance>& dist,
                                graph::VertexId source,
                                const std::vector<graph::Distance>* bounds);

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

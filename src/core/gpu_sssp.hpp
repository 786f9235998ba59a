// GPU Δ-stepping engine on the gpusim substrate.
//
// One engine implements the whole ablation space of the paper's Fig. 8 via
// GpuSsspOptions:
//
//   BL   (mode = kSyncPushBellmanFord): the paper's baseline — synchronous
//        push-mode SSSP without buckets, one kernel launch per frontier
//        sweep, static thread-per-vertex balancing.
//   sync Δ-stepping (all flags off): bucketed, fixed Δ, per-iteration
//        launches, separate phase-2/phase-3 kernels, per-edge light/heavy
//        branch.
//   PRO : weight-sorted adjacency; phase 1 touches only the light range
//         (O(1) via the heavy offset, maintained incrementally when Δ is
//         readjusted), no per-edge weight branch.
//   ADWL: active vertices classified small/medium/large (β=32, α=256);
//         parents handle small vertices inline, spawn warp/block-granularity
//         child tasks for the rest (dynamic parallelism); phases 2&3 fused.
//   BASYN: phase 1 runs as one persistent kernel per bucket with
//         immediately-visible updates and no iteration barriers; bucket
//         width adapts per Eq. (1)-(2).
//
// Execution is functional (real distances are computed and validated) and
// costed by gpusim (see gpusim/sim.hpp for the cost model).
#pragma once

#include <deque>
#include <vector>

#include "core/delta_controller.hpp"
#include "core/device_graph.hpp"
#include "core/options.hpp"
#include "core/recovery.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

using graph::Csr;
using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

class GpuDeltaStepping : public RecoverableEngine {
 public:
  // `csr` must outlive the engine. With options.pro set the graph must have
  // weight-sorted adjacency (reorder::sort_adjacency_by_weight or the full
  // property_driven_reorder pipeline); this is checked once at construction.
  // Runs on its own simulator, with options.sanitize and options.fault.
  GpuDeltaStepping(gpusim::DeviceSpec device, const Csr& csr,
                   GpuSsspOptions options);

  // Runs on `device`, e.g. a batch lane (EngineDevice::lane) whose CSR is
  // `csr`'s upload; the record's form decides gsan and gfi. Per-query
  // buffers (distances, queues, heavy-offset mirror) are allocated once
  // here and pooled across run() calls.
  GpuDeltaStepping(EngineDevice device, const Csr& csr,
                   GpuSsspOptions options);

  // run(source) (RecoverableEngine) polls the context()'s cancel token at
  // every bucket and phase-1-iteration boundary (an expired run returns
  // deadline_exceeded with partial metrics and NO distances); the warm or
  // resume bounds seed every attempt; and with options.checkpoint_interval
  // set, a snapshot is taken every N bucket boundaries (never in BL mode).

  const GpuSsspOptions& options() const { return options_; }

 private:
  // One recovery attempt: the full Δ-stepping run, re-initializing all
  // mutable device state first (so a retry starts clean).
  GpuRunResult attempt(VertexId source, AttemptContext& query) override;

  // --- kernel bodies -------------------------------------------------------
  // Phase 1, synchronous mode: one kernel per frontier iteration.
  // Polls query.cancelled() before every iteration.
  void phase1_sync(Weight lo, Weight hi, Weight delta, BucketStats& stats,
                   AttemptContext& query);
  // Phase 1, asynchronous mode: one persistent kernel per bucket.
  void phase1_async(Weight lo, Weight hi, Weight delta, BucketStats& stats);

  // Shared warp body: process up to 32 active vertices thread-per-vertex
  // (parent lanes). With ADWL, medium/large vertices spawn child chunks
  // (within the light range) instead of being processed inline.
  void parent_warp(gpusim::WarpCtx& ctx, std::vector<VertexId>& lanes,
                   Weight lo, Weight hi, Weight delta,
                   std::vector<EdgeChunk>* children, BucketStats& stats);
  // Child warp: one 32-edge coalesced chunk of a medium/large vertex.
  void child_warp(gpusim::WarpCtx& ctx, const EdgeChunk& chunk, Weight hi,
                  Weight delta, BucketStats& stats);

  // Fused phase 2&3 scan (RDBS) or the two separate scans (BL). Relaxes the
  // heavy edges of vertices settled in [lo, hi), then collects the frontier
  // for [next_lo, next_hi) into the phase-1 queue. Returns the smallest
  // unsettled distance >= next_lo (infinity if none) and the number of
  // remaining unsettled vertices.
  struct ScanOutcome {
    Distance min_unsettled = graph::kInfiniteDistance;
    std::uint64_t remaining = 0;
    std::uint64_t converged = 0;  // settled in [lo, hi)
  };
  ScanOutcome phase23(Weight lo, Weight hi, Weight delta, Weight next_lo,
                      Weight next_hi, bool relax_heavy);

  // --- helpers -------------------------------------------------------------
  // Light-range end of v for threshold `delta` (functional value; the
  // device-side cost — offset load or incremental maintenance — is charged
  // at warp level by the callers).
  EdgeIndex light_end(VertexId v, Weight delta) const;
  // Host-seeds the phase-1 ring with the source plus — when the attempt
  // starts from upper bounds (`warm`) — every seeded vertex whose distance
  // already lies inside the initial window [0, hi).
  void seed_queue(VertexId source, Weight hi, bool warm);
  void enqueue(gpusim::WarpCtx& ctx, VertexId v, std::uint32_t lanes);
  void charge_enqueue(gpusim::WarpCtx& ctx, std::uint32_t lanes);

  GpuSsspOptions options_;

  // Per-query device data (device element sizes match the CUDA layout:
  // 4-byte offsets/ids/weights/distances); the read-only CSR arrays are the
  // device record's.
  gpusim::Buffer<EdgeIndex> heavy_offsets_;  // present with PRO
  gpusim::Buffer<Distance> dist_;
  gpusim::Buffer<VertexId> queue_;     // phase-1 work queue (ring)
  gpusim::Buffer<std::uint32_t> queue_ctrl_;  // [0]=tail, [1]=head cursors
  gpusim::Buffer<std::uint8_t> in_queue_;

  // Host-side functional mirror of the work queue.
  std::deque<VertexId> vqueue_;
  std::uint64_t queue_tail_ = 0;  // ring cursor for store addressing
  std::uint64_t queue_head_ = 0;  // ring cursor for pop addressing

  // Distinct-settlement tracking per bucket (C_i for the Δ-controller):
  // epoch_[v] == current_epoch_ iff v was already counted in this bucket.
  std::vector<std::uint64_t> epoch_;
  std::uint64_t current_epoch_ = 0;

  sssp::WorkStats work_;
};

}  // namespace rdbs::core

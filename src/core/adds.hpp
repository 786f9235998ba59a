// ADDS-like comparator (paper Table 2 / Figs. 9-11).
//
// Wang, Fussell & Lin's ADDS (PPoPP'21) is the state-of-the-art GPU SSSP
// the paper compares against: an *asynchronous* Near-Far Δ-stepping with a
// dynamically adjusted Δ. Following the paper's Related-Work
// characterization ("Wang uses an asynchronous mode and changes Δ, which
// increases the difficulty of programming and ignores irregular memory
// access problems"), this model keeps ADDS's strengths — async execution,
// few kernel launches, no full-vertex scans (the Far pile is re-split
// instead) — and its weaknesses relative to RDBS: unsorted adjacency (per-
// edge branch, divergent accesses) and plain thread-per-vertex mapping (a
// hub vertex stalls its whole warp, the effect that makes ADDS collapse on
// Kronecker graphs in Fig. 8/Table 2).
#pragma once

#include <deque>
#include <memory>

#include "core/device_graph.hpp"
#include "core/options.hpp"
#include "core/recovery.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

struct AddsOptions {
  graph::Weight delta = 100.0;  // Near/Far threshold increment
  bool instrument = false;
  // gsan hazard analysis over every launch (docs/sanitizer.md).
  gpusim::SanitizeMode sanitize = gpusim::SanitizeMode::kOff;
  // Deterministic fault injection + recovery (gfi; docs/fault_injection.md).
  gpusim::FaultConfig fault;
  RetryPolicy retry;
  // Per-vertex upper bounds seeding the tentative distances (engine
  // numbering; caller-owned; see GpuSsspOptions::warm_start). Near-Far is
  // label-correcting like Δ-stepping, so bounds preserve exactness.
  const std::vector<graph::Distance>* warm_start = nullptr;
  // Checkpoint-resume: snapshot the tentative distances every N near/far
  // round boundaries (0 = off); see GpuSsspOptions::checkpoint_interval.
  int checkpoint_interval = 0;
};

class AddsLike : public RecoverableEngine {
 public:
  AddsLike(gpusim::DeviceSpec device, const graph::Csr& csr,
           AddsOptions options);

  // Shared-simulator variant for batched queries: kernels go to `stream` of
  // an externally owned simulator (never reset by the engine; metrics are
  // per-query deltas). With `shared_graph` set, the device CSR arrays are
  // reused instead of uploaded again. See GpuDeltaStepping for the pattern.
  AddsLike(gpusim::GpuSim& sim, gpusim::StreamId stream,
           const graph::Csr& csr, AddsOptions options,
           const DeviceCsrBuffers* shared_graph = nullptr);

  // run(source) (RecoverableEngine) polls the context()'s cancel token at
  // every near/far round boundary, seeds every attempt from its warm or
  // resume bounds, and with options.checkpoint_interval set snapshots the
  // distances every N round boundaries (see GpuDeltaStepping).

  gpusim::GpuSim& sim() { return *sim_; }
  gpusim::StreamId stream() const { return stream_; }

 private:
  // One recovery attempt: the full Near-Far run, re-initializing all
  // mutable device state first (so a retry starts clean).
  GpuRunResult attempt(graph::VertexId source,
                       AttemptContext& query) override;

  void init_device_state(const DeviceCsrBuffers* shared_graph);
  void init_distances_kernel(graph::VertexId source);

  std::unique_ptr<gpusim::GpuSim> owned_sim_;  // null in shared-sim mode
  gpusim::GpuSim* sim_;                        // never null
  gpusim::StreamId stream_ = 0;
  AddsOptions options_;

  std::unique_ptr<DeviceCsrBuffers> owned_graph_;
  const DeviceCsrBuffers* graph_bufs_ = nullptr;  // never null after ctor
  gpusim::Buffer<graph::Distance> dist_;
  gpusim::Buffer<graph::VertexId> near_queue_;
  gpusim::Buffer<graph::VertexId> far_pile_;
  gpusim::Buffer<std::uint32_t> queue_ctrl_;  // [0]=near tail, [1]=near head,
                                              // [2]=far tail
  gpusim::Buffer<std::uint8_t> in_near_;

  sssp::WorkStats work_;
};

}  // namespace rdbs::core

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

#include "core/cancel.hpp"
#include "core/checkpoint.hpp"
#include "core/device_graph.hpp"
#include "core/options.hpp"
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

class AddsLike {
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

  // Runs SSSP from `source`. With fault injection enabled (options.fault)
  // the run executes under options.retry — poisoned attempts are discarded
  // and rerun, and the result carries the typed faults plus recovery
  // counters. Throws std::out_of_range for an invalid source.
  GpuRunResult run(graph::VertexId source);

  gpusim::GpuSim& sim() { return *sim_; }
  gpusim::StreamId stream() const { return stream_; }

  // Serving-layer cooperative cancellation (docs/serving.md): polled at the
  // near/far round boundary; once expired the run stops charging device
  // time and returns deadline_exceeded with partial metrics, no distances.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

  // Result-cache warm start (docs/serving.md): rebinds the upper-bound
  // array for subsequent runs; nullptr detaches. The array must outlive
  // every run it seeds (retries re-read it).
  void set_warm_start(const std::vector<graph::Distance>* bounds) {
    options_.warm_start = bounds;
  }

  // --- checkpoint-resume (core/checkpoint.hpp; see GpuDeltaStepping) -------
  const QueryCheckpoint& checkpoint() const { return checkpoint_; }
  QueryCheckpoint take_checkpoint() { return std::move(checkpoint_); }
  // One-shot resume bounds for the next run() (engine numbering); used by
  // lane migration. Cleared when that run returns.
  void set_resume_bounds(std::vector<graph::Distance> bounds);

 private:
  // One recovery attempt: the full Near-Far run, re-initializing all
  // mutable device state first (so a retry starts clean).
  GpuRunResult run_attempt(graph::VertexId source);
  bool attempt_poisoned() const;
  bool check_cancelled();
  const std::vector<graph::Distance>* effective_warm_bounds() const;
  void maybe_checkpoint();
  bool resume_from_checkpoint();

  void init_device_state(const DeviceCsrBuffers* shared_graph);
  void init_distances_kernel(graph::VertexId source);

  std::unique_ptr<gpusim::GpuSim> owned_sim_;  // null in shared-sim mode
  gpusim::GpuSim* sim_;                        // never null
  gpusim::StreamId stream_ = 0;
  const graph::Csr& csr_;
  AddsOptions options_;

  std::unique_ptr<DeviceCsrBuffers> owned_graph_;
  const DeviceCsrBuffers* graph_bufs_ = nullptr;  // never null after ctor
  gpusim::Buffer<graph::Distance> dist_;
  gpusim::Buffer<graph::VertexId> near_queue_;
  gpusim::Buffer<graph::VertexId> far_pile_;
  gpusim::Buffer<std::uint32_t> queue_ctrl_;  // [0]=near tail, [1]=near head,
                                              // [2]=far tail
  gpusim::Buffer<std::uint8_t> in_near_;

  // Fault-log watermark of the current attempt (gfi).
  std::size_t fault_scan_begin_ = 0;

  // Checkpoint-resume state (core/checkpoint.hpp).
  QueryCheckpoint checkpoint_;
  std::uint64_t boundary_count_ = 0;
  std::vector<graph::Distance> resume_bounds_;

  // Serving-layer cancellation (null = never cancelled).
  const CancelToken* cancel_ = nullptr;
  bool attempt_cancelled_ = false;

  sssp::WorkStats work_;
};

}  // namespace rdbs::core

// Shared fault-recovery driver for the GPU engines (gfi; see
// docs/fault_injection.md) and the one contract every engine implements.
//
// An engine is a *pure attempt*: attempt(source, ctx) fully re-initializes
// its mutable device state (distances, queues, cursors) before doing any
// work, so rerunning it from scratch is a clean recovery from any transient
// fault. Everything else an attempt needs lives in its AttemptContext —
// the simulators it runs on, the poison check, the cancel token, the upper
// bounds it starts from and the checkpoint sink. run_with_recovery() is the
// one retry loop; it drives the context through the RetryPolicy:
//
//   1. open the attempt (fault-log watermarks, cancel latch, checkpoint
//      boundary counter) and run it;
//   2. scan every simulator's log tail: no poisoning event -> success
//      (benign events — ECC-corrected flips, stream stalls — are reported
//      but need no retry);
//   3. poisoned -> discard the attempt, charge the exponential backoff and
//      the re-upload of poisoned read-only buffers to the simulated clock,
//      and rerun (seeded from the last good checkpoint when there is one);
//   4. device lost or attempts exhausted -> fall back to the host Dijkstra
//      reference (policy.cpu_fallback) or return ok == false with the
//      typed faults. Never wrong distances, never a crash.
//
// Metrics accumulate across attempts: device_ms / queue_wait_ms / counters
// of the returned result cover every attempt plus backoff and re-upload
// charges, so recovery cost is visible in the timeline.
#pragma once

#include <functional>
#include <vector>

#include "core/cancel.hpp"
#include "core/checkpoint.hpp"
#include "core/options.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

// Per-engine state of one query's attempts. The engine owns it (so the
// serving layer can bind a query to it and harvest its checkpoint);
// run_with_recovery opens and closes every attempt on it.
class AttemptContext {
 public:
  // Adds a simulator the attempts run on, with the stream their work,
  // backoff and checkpoint copies are charged to. Faults scanned on the
  // i-th attached simulator carry GpuFault::device == i (MultiGpu shards;
  // a single-device engine attaches one and tags 0).
  void attach(gpusim::GpuSim& sim, gpusim::StreamId stream = 0);

  // --- per-query bindings (serving layer) ----------------------------------
  // Cooperative cancellation (docs/serving.md): polled by cancelled() and
  // before every retry. The token must outlive the runs it governs; nullptr
  // detaches.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }
  // Result-cache warm start: caller-owned upper bounds (ENGINE numbering,
  // one per vertex; see GpuSsspOptions::warm_start) that seed every attempt
  // of subsequent runs. nullptr detaches.
  void set_warm_start(const std::vector<graph::Distance>* bounds) {
    warm_ = bounds;
  }
  // One-shot resume (lane migration): the next run seeds from `bounds`
  // (ENGINE numbering) instead of the warm start. Cleared when it returns.
  void set_resume_bounds(std::vector<graph::Distance> bounds) {
    resume_ = std::move(bounds);
  }
  // Last good snapshot of the most recent run (core/checkpoint.hpp): empty
  // when checkpointing is off or no clean boundary was reached. Stable
  // until the next run; the serving layer moves it out for migration.
  const QueryCheckpoint& checkpoint() const { return checkpoint_; }
  QueryCheckpoint take_checkpoint() { return std::move(checkpoint_); }

  // --- inside an attempt ---------------------------------------------------
  // Whether the current attempt already took a poisoning fault on any
  // simulator (or lost a device). Loop invariants may legitimately break
  // then: the attempt stops instead of the process, and recovery discards
  // it anyway.
  bool poisoned() const;
  // Cancellation point: polls the token and latches the outcome, so every
  // enclosing loop of the attempt unwinds too.
  bool cancelled();
  // The upper bounds this attempt starts from: the one-shot resume bounds
  // when set (they came from an attempt that had already absorbed the warm
  // start, so they are pointwise at least as tight), else the warm start,
  // else null.
  const std::vector<graph::Distance>* upper_bounds() const {
    return resume_.empty() ? warm_ : &resume_;
  }
  // Checkpoint sink, called at every bucket/round boundary: every
  // `interval` boundaries (0 = off) snapshots `dist` (simulator 0) into
  // checkpoint() and charges the D2H copy. A tainted attempt — a poisoning
  // fault seen, or the distance region itself poisoned — stops
  // snapshotting: a corrupt bound could lie below the true distance, and
  // the last good snapshot stands.
  void checkpoint_boundary(const gpusim::Buffer<graph::Distance>& dist,
                           int interval);

 private:
  friend GpuRunResult run_with_recovery(
      AttemptContext&, const RetryPolicy&, const graph::Csr&,
      graph::VertexId,
      const std::function<GpuRunResult(AttemptContext&)>&);

  struct Device {
    gpusim::GpuSim* sim;
    gpusim::StreamId stream;
    std::size_t log_begin = 0;  // fault-log watermark of this attempt
  };

  void begin_attempt();
  bool any_device_lost() const;

  std::vector<Device> devices_;
  const CancelToken* cancel_ = nullptr;
  bool cancel_latched_ = false;
  const std::vector<graph::Distance>* warm_ = nullptr;
  std::vector<graph::Distance> resume_;
  QueryCheckpoint checkpoint_;
  std::uint64_t boundaries_ = 0;  // boundaries crossed this attempt
};

// Runs `attempt` on `ctx` under `policy` as described above; `csr`/`source`
// feed the CPU fallback. Throws std::out_of_range for an invalid source.
// When fault injection is off on every simulator the first attempt is
// returned as-is (zero overhead beyond the checks).
//
// The context's cancel token is the serving layer's deadline
// (docs/serving.md). It dominates the retry policy: an attempt that returns
// deadline_exceeded is terminal (no retry, no CPU fallback — a late answer
// is not an answer; hedging is the server's decision, made up front), and
// an expired token before a retry or before the fallback likewise ends
// recovery with deadline_exceeded set.
//
// Checkpoint-resume (docs/serving.md "Checkpoint-resume & lane
// migration"): a stale snapshot never seeds a different query, so the
// context's checkpoint is cleared on entry. When preparing a retry, after
// the backoff charge, a valid checkpoint becomes the next attempt's resume
// bounds — the retry continues from the salvaged upper bounds instead of
// rerunning cold, and RecoveryStats::resumed counts it. Label-correcting
// exactness makes the resumed run bit-identical in distances to a cold one.
GpuRunResult run_with_recovery(
    AttemptContext& ctx, const RetryPolicy& policy, const graph::Csr& csr,
    graph::VertexId source,
    const std::function<GpuRunResult(AttemptContext&)>& attempt);

// The engine contract: a subclass implements attempt() and inherits run().
class RecoverableEngine {
 public:
  virtual ~RecoverableEngine() = default;
  // The context holds the address of the engine's simulator.
  RecoverableEngine(const RecoverableEngine&) = delete;
  RecoverableEngine& operator=(const RecoverableEngine&) = delete;

  // Runs SSSP from `source` (in the engine graph's numbering) under the
  // engine's RetryPolicy through run_with_recovery: the result carries the
  // typed faults plus recovery counters (docs/fault_injection.md). Throws
  // std::out_of_range for an invalid source.
  GpuRunResult run(graph::VertexId source) {
    return run_with_recovery(
        ctx_, retry_, csr_, source,
        [&](AttemptContext& ctx) { return attempt(source, ctx); });
  }

  // Per-query bindings: cancel token, warm/resume bounds, checkpoint.
  AttemptContext& context() { return ctx_; }
  const AttemptContext& context() const { return ctx_; }

 protected:
  RecoverableEngine(const graph::Csr& csr, const RetryPolicy& retry)
      : csr_(csr), retry_(retry) {}

  // One full attempt from `source`; see the header comment.
  virtual GpuRunResult attempt(graph::VertexId source,
                               AttemptContext& ctx) = 0;

  const graph::Csr& csr_;
  AttemptContext ctx_;

 private:
  RetryPolicy retry_;
};

}  // namespace rdbs::core

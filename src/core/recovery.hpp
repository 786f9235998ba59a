// Shared fault-recovery driver for the GPU engines (gfi; see
// docs/fault_injection.md).
//
// Every engine's run() is a *pure attempt*: it fully re-initializes its
// mutable device state (distances, queues, cursors) before doing any work,
// so rerunning it from scratch is a clean recovery from any transient
// fault. run_with_recovery() wraps that attempt in the RetryPolicy loop:
//
//   1. snapshot the simulator's fault log, run the attempt;
//   2. scan the log tail: no poisoning event -> success (benign events —
//      ECC-corrected flips, stream stalls — are reported but need no
//      retry);
//   3. poisoned -> discard the attempt, charge the exponential backoff and
//      the re-upload of poisoned read-only buffers to the simulated clock,
//      and rerun;
//   4. device lost or attempts exhausted -> fall back to the host Dijkstra
//      reference (policy.cpu_fallback) or return ok == false with the
//      typed faults. Never wrong distances, never a crash.
//
// Metrics accumulate across attempts: device_ms / queue_wait_ms / counters
// of the returned result cover every attempt plus backoff and re-upload
// charges, so recovery cost is visible in the timeline.
#pragma once

#include <functional>

#include "core/cancel.hpp"
#include "core/options.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

// Classification of the fault-log tail one attempt produced.
struct AttemptFaults {
  std::vector<gpusim::GpuFault> faults;  // new events, canonical order
  std::uint64_t ecc_corrected = 0;
  bool poisoned = false;     // any event requiring a retry
  bool device_lost = false;  // device-lost latch is set on the simulator
};

AttemptFaults scan_attempt_faults(const gpusim::GpuSim& sim,
                                  std::size_t log_begin);

// Runs `attempt` under `policy` as described above. `stream` is where
// backoff/re-upload time is charged; `csr`/`source` feed the CPU fallback.
// When fault injection is disabled on `sim` the first attempt is returned
// as-is (zero overhead beyond the log-size check).
//
// `cancel` (may be null) is the serving layer's deadline
// (docs/serving.md). The deadline dominates the retry policy: an attempt
// that returns deadline_exceeded is terminal (no retry, no CPU fallback — a
// late answer is not an answer; hedging is the server's decision, made up
// front), and an expired token before a retry or before the fallback
// likewise ends recovery with deadline_exceeded set.
//
// `resume` (may be empty) is checkpoint-resume (docs/serving.md
// "Checkpoint-resume & lane migration"). It is consulted while preparing
// each retry, after the backoff charge: when it returns true the engine has
// re-seeded the next attempt from a host-side QueryCheckpoint — the retry
// then continues from the salvaged upper bounds instead of rerunning cold,
// and the result's RecoveryStats::resumed counts it. Label-correcting
// exactness makes the resumed run bit-identical in distances to a cold one.
GpuRunResult run_with_recovery(gpusim::GpuSim& sim, gpusim::StreamId stream,
                               const RetryPolicy& policy,
                               const graph::Csr& csr, graph::VertexId source,
                               const std::function<GpuRunResult()>& attempt,
                               const CancelToken* cancel = nullptr,
                               const std::function<bool()>& resume = {});

}  // namespace rdbs::core

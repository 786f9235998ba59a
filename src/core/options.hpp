// Configuration of the GPU Δ-stepping engine. The three paper optimizations
// are independent switches so the Fig. 8 ablation (BL, BASYN+PRO,
// BASYN+ADWL, BASYN+PRO+ADWL) can be expressed directly.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/sanitizer.hpp"
#include "graph/types.hpp"

namespace rdbs::core {

// Engine-layer recovery from injected (or, on real hardware, genuine)
// device faults; see docs/fault_injection.md. An attempt whose fault scan
// shows a poisoning event (uncorrectable flip, launch failure, timeout) is
// discarded and rerun from scratch — every engine fully re-initializes its
// device state per run, so a full-query restart is a clean retry. Backoff
// and re-uploads are charged to the *simulated* clock.
struct RetryPolicy {
  int max_attempts = 3;          // total attempts, including the first
  double backoff_ms = 0.05;      // delay before the first retry
  double backoff_multiplier = 2.0;  // exponential growth per retry
  // When attempts are exhausted (or the device is lost), fall back to the
  // host-side Dijkstra reference so callers still get correct distances.
  // When false, the result carries ok == false and the typed faults
  // instead — never silently wrong distances.
  //
  // Under a serving-layer deadline (core/cancel.hpp, docs/serving.md) the
  // deadline dominates this policy: an expired CancelToken ends recovery
  // immediately — no further retries, no backoff charge, and no CPU
  // fallback (which would only produce a late answer) — and the result
  // reports deadline_exceeded instead.
  bool cpu_fallback = true;
};

enum class EngineMode {
  // Bucketed Δ-stepping (phases 1-3); the BASYN/PRO/ADWL flags apply.
  kBucketDelta,
  // The paper's baseline BL: synchronous push-mode SSSP — a frontier
  // Bellman-Ford with one kernel launch per iteration, static
  // thread-per-vertex balancing, no buckets. PRO/ADWL flags still apply
  // (they are off for the paper's BL configuration).
  kSyncPushBellmanFord,
};

struct GpuSsspOptions {
  EngineMode mode = EngineMode::kBucketDelta;

  // --- the paper's three optimizations -----------------------------------
  // Bucket-aware asynchronous execution (§4.3): phase 1 runs as one
  // persistent kernel per bucket with immediately-visible updates, and the
  // bucket width is readjusted per bucket via Eq. (1)-(2).
  bool basyn = true;
  // Property-driven reordering (§4.1): requires the input CSR to be
  // weight-sorted with heavy offsets (reorder::property_driven_reorder);
  // phase 1 then touches only light edges and pays no per-edge branch.
  bool pro = true;
  // Adaptive load balancing (§4.2): classify active vertices into
  // small/medium/large workload lists and process them at thread/warp/block
  // granularity through dynamic parallelism; phases 2&3 are kernel-fused.
  bool adwl = true;

  // --- Δ-stepping parameters ----------------------------------------------
  graph::Weight delta0 = 100.0;  // initial bucket width Δ0 (=Δ1)

  // ADWL classification thresholds (paper: α = block = 256, β = warp = 32).
  std::uint32_t alpha = 256;
  std::uint32_t beta = 32;
  // Edges per block above which a large vertex gets multiple blocks.
  std::uint32_t block_edge_quota = 4096;

  // --- simulator execution --------------------------------------------------
  // gsan hazard analysis over every launch (docs/sanitizer.md). Off by
  // default; results are unchanged either way — sanitizing only observes.
  gpusim::SanitizeMode sanitize = gpusim::SanitizeMode::kOff;

  // gfi deterministic fault injection (docs/fault_injection.md). Off by
  // default; when enabled the engine runs under `retry` and reports the
  // injected faults plus recovery counters in GpuRunResult.
  gpusim::FaultConfig fault;
  RetryPolicy retry;

  // --- serving-layer warm start ---------------------------------------------
  // Optional per-vertex upper bounds on the true distances (ENGINE vertex
  // numbering; kInfiniteDistance = no bound), owned by the caller and valid
  // for the whole run (including retries). Finite bounds seed the tentative
  // distances right after the init kernel and the covered vertices join the
  // initial frontier window. Δ-stepping is label-correcting, so any valid
  // upper bound preserves exactness (core/result_cache.hpp; docs/serving.md
  // "Result cache"). Binds the engine's AttemptContext at construction;
  // typically rebound per query via context().set_warm_start().
  const std::vector<graph::Distance>* warm_start = nullptr;

  // --- checkpoint-resume ----------------------------------------------------
  // Snapshot the tentative distance vector into a host-side QueryCheckpoint
  // every N bucket/round boundaries (0 = off). The D2H copy is charged to
  // the simulated clock; snapshots stop for an attempt once a poisoning
  // fault is seen, so a corrupt bound can never leak into a resume. With a
  // checkpoint available, retries seed from it instead of rerunning cold
  // (RecoveryStats::resumed) and the serving layer can migrate the query to
  // another lane mid-flight (core/checkpoint.hpp, docs/serving.md
  // "Checkpoint-resume & lane migration").
  int checkpoint_interval = 0;
};

}  // namespace rdbs::core

// Multi-GPU SSSP — the paper's stated future work ("we will further explore
// a high-performance graph processing framework for large-scale graphs on
// the multi-GPUs platform", §7) built on the same simulator substrate.
//
// Design: 1D contiguous vertex partition across G identical devices. Each
// device holds the CSR rows of its owned vertices (edges may point
// anywhere) and its shard of the distance array. Execution is
// bucket-synchronous Δ-stepping:
//
//   per bucket:
//     repeat (inner rounds):
//       each device relaxes the light edges of its local frontier;
//       relaxations targeting remote vertices become (vertex, distance)
//       messages, exchanged all-to-all at the end of the round (cost:
//       per-round interconnect latency + bytes/bandwidth, overlapped
//       across device pairs); owners apply messages via atomicMin;
//     until no device has local work or in-flight messages;
//     each device relaxes heavy edges of settled vertices and collects the
//     next bucket (remote heavy targets also message).
//
// Makespan per phase = max over devices (devices run concurrently) plus the
// exchange cost; the bucket walk is host-coordinated like a single-node
// multi-GPU launch loop. Distances are exact (validated against Dijkstra
// in the tests).
#pragma once

#include <memory>
#include <vector>

#include "core/options.hpp"
#include "core/recovery.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

struct InterconnectSpec {
  // NVLink-class defaults; set lower for PCIe.
  double bandwidth_gbps = 50.0;  // per device pair, per direction
  double latency_us = 8.0;       // per all-to-all exchange round
};

struct MultiGpuOptions {
  int num_devices = 2;
  graph::Weight delta0 = 100.0;
  InterconnectSpec interconnect;
  // gsan hazard analysis on every per-device simulator (docs/sanitizer.md).
  gpusim::SanitizeMode sanitize = gpusim::SanitizeMode::kOff;
  // Deterministic fault injection + recovery (gfi; docs/fault_injection.md).
  // Each device shard gets its own injector with a seed derived from
  // fault.seed and the device index, so per-device plans are independent
  // but still bit-reproducible.
  gpusim::FaultConfig fault;
  RetryPolicy retry;
};

struct MultiGpuRunResult {
  // Distances and the fault/recovery outcome (gfi: faults carry the shard
  // index in GpuFault::device; ok == false only with retry.cpu_fallback
  // disabled). gpu.device_ms is the makespan: end-to-end simulated time
  // over every attempt, backoff and re-upload included. gpu.counters sum
  // every shard's, and gpu.sanitizer_report merges the shards' gsan
  // reports ("[gpu<d>] " prefix per line).
  GpuRunResult gpu;
  double compute_ms = 0;           // makespan minus exchange_ms
  double exchange_ms = 0;          // interconnect time, every attempt
  // The attempt that produced the distances (zero/empty after a CPU
  // fallback or a typed failure):
  std::uint64_t messages = 0;      // remote relaxations sent
  std::uint64_t exchange_rounds = 0;
  std::vector<double> per_device_busy_ms;  // total busy time per device

  double gteps(std::uint64_t edges) const { return gpu.gteps(edges); }
};

class MultiGpuDeltaStepping {
 public:
  MultiGpuDeltaStepping(gpusim::DeviceSpec device_template,
                        const graph::Csr& csr, MultiGpuOptions options);
  ~MultiGpuDeltaStepping();

  // Runs SSSP from `source`. With options.fault enabled the run executes
  // under options.retry; a lost device degrades the query to the CPU
  // Dijkstra reference (1D shards cannot be re-packed onto survivors).
  // Throws std::out_of_range for an invalid source.
  MultiGpuRunResult run(graph::VertexId source);

  // Whether any shard's device-lost latch is set (cleared only by
  // reviving the underlying simulators; see GpuSim::revive_device).
  bool any_device_lost() const;

  int num_devices() const { return options_.num_devices; }
  // Owner device of a vertex under the 1D partition.
  int owner_of(graph::VertexId v) const {
    return static_cast<int>(v / shard_size_);
  }

 private:
  struct Shard;

  // One recovery attempt (full bucket walk from reset shards). Adds
  // its interconnect time to out.exchange_ms and replaces the message
  // tallies; the result's device_ms is the attempt's makespan.
  GpuRunResult attempt(graph::VertexId source, AttemptContext& query,
                       MultiGpuRunResult& out);

  const graph::Csr& csr_;
  MultiGpuOptions options_;
  graph::VertexId shard_size_;
  std::vector<std::unique_ptr<Shard>> shards_;
  AttemptContext ctx_;  // one simulator per shard, in shard order
};

}  // namespace rdbs::core

// Gunrock-like data-centric operator framework (Wang et al., ToPC 2017 —
// paper ref [35]) on the gpusim substrate.
//
// Gunrock expresses graph algorithms as a pipeline of bulk operators over
// a frontier of vertices:
//
//   advance — expand the frontier's out-edges through a per-edge functor
//             (load-balanced across warps: edges are flattened into even
//             chunks, Gunrock's per-load-balancing strategy);
//   filter  — compact a frontier through a per-vertex predicate (dedup +
//             validity), producing the next iteration's frontier.
//
// The operators charge realistic costs (frontier loads, functor ALU,
// atomic scatters, compaction scans) through a shared GpuSim. SSSP is then
// written exactly as Gunrock's sssp app: advance(relax) -> filter(dedup)
// per iteration, with a two-level (near/far) priority split — the paper's
// "priority queue" optimization — and per-iteration kernel launches
// (Gunrock is bulk-synchronous, the "slow convergence" the paper calls
// out).
#pragma once

#include <functional>
#include <vector>

#include "core/device_graph.hpp"
#include "core/options.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core::gunrock {

using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

// Per-edge functor for advance: return true to emit the destination into
// the advance output frontier.
using AdvanceFunctor =
    std::function<bool(VertexId src, VertexId dst, Weight w)>;
// Per-vertex predicate for filter.
using FilterPredicate = std::function<bool(VertexId)>;

// The operator context: owns the device record (simulator and
// device-resident graph).
class Frontier;

class Enactor {
 public:
  Enactor(gpusim::DeviceSpec device, const graph::Csr& csr,
          gpusim::SanitizeMode sanitize = gpusim::SanitizeMode::kOff,
          const gpusim::FaultConfig& fault = {});

  // advance: expand `frontier` through `f`; the emitted destinations
  // (with duplicates) form the result.
  Frontier advance(const Frontier& frontier, const AdvanceFunctor& f);
  // filter: keep vertices passing `pred`, dropping duplicates (Gunrock's
  // bitmap-based dedup), in one compaction kernel.
  Frontier filter(const Frontier& frontier, const FilterPredicate& pred);

  const EngineDevice& device() const { return device_; }
  gpusim::GpuSim& sim() { return device_.sim(); }
  const graph::Csr& csr() const { return csr_; }

  // Device-resident distance array for apps that need one (SSSP).
  gpusim::Buffer<Distance>& dist() { return dist_; }

 private:
  friend class Frontier;

  // Make `frontier` resident in frontier_in_ (slots [0, size)): the host
  // mirror of the previous operator's compact-store, or an H2D upload for
  // host-constructed frontiers (the source seed, far-pile re-splits).
  void seed_frontier(const Frontier& frontier);

  EngineDevice device_;
  const graph::Csr& csr_;

  gpusim::Buffer<Distance> dist_;
  // Double-buffered frontier queues (Gunrock's ping-pong): each operator
  // reads frontier_in_ and compact-stores its output into frontier_out_,
  // then the buffers swap. Reading and writing the same array inside one
  // bulk launch would be a data race.
  gpusim::Buffer<VertexId> frontier_in_;
  gpusim::Buffer<VertexId> frontier_out_;
  gpusim::Buffer<std::uint32_t> frontier_ctrl_;  // [0]=output cursor
  gpusim::Buffer<std::uint8_t> visited_;
};

// A frontier is a list of vertex ids (duplicates allowed until filter).
class Frontier {
 public:
  Frontier() = default;
  explicit Frontier(std::vector<VertexId> vertices)
      : vertices_(std::move(vertices)) {}

  const std::vector<VertexId>& vertices() const { return vertices_; }
  std::size_t size() const { return vertices_.size(); }
  bool empty() const { return vertices_.empty(); }

 private:
  friend class Enactor;
  std::vector<VertexId> vertices_;
};

// --- the SSSP app -----------------------------------------------------------

struct GunrockSsspOptions {
  // Near/far priority split (Gunrock's sssp uses a two-level priority
  // queue); 0 disables the split (plain Bellman-Ford iterations).
  Weight delta = 100.0;
  // gsan hazard analysis over every launch (docs/sanitizer.md).
  gpusim::SanitizeMode sanitize = gpusim::SanitizeMode::kOff;
  // Deterministic fault injection + recovery (gfi; docs/fault_injection.md).
  gpusim::FaultConfig fault;
  RetryPolicy retry;
};

// Runs Gunrock's sssp app. With options.fault enabled the run executes
// under options.retry (poisoned attempts discarded and rerun; typed faults
// and recovery counters in the result). Throws std::out_of_range for an
// invalid source.
GpuRunResult sssp(gpusim::DeviceSpec device, const graph::Csr& csr,
                  VertexId source, const GunrockSsspOptions& options = {});

}  // namespace rdbs::core::gunrock

// RdbsSolver — the library's main public entry point.
//
// Wraps the full RDBS pipeline of the paper's Fig. 7: property-driven
// reordering at preprocessing time, then the bucket-aware asynchronous
// Δ-stepping engine with adaptive load balancing. Results are mapped back
// to the caller's original vertex numbering.
//
//   using namespace rdbs;
//   core::RdbsSolver solver(csr, gpusim::v100());
//   core::GpuRunResult r = solver.solve(source);
//   // r.sssp.distances[v] is the shortest distance to original vertex v
//
// Pass custom GpuSsspOptions to toggle individual optimizations (the
// Fig. 8 ablations) or a different DeviceSpec (the Fig. 12 platforms).
#pragma once

#include <memory>
#include <vector>

#include "core/gpu_sssp.hpp"
#include "reorder/pro.hpp"

namespace rdbs::core {

class RdbsSolver {
 public:
  // Preprocesses `csr` according to options (PRO reordering when
  // options.pro is set; plain weight-sort is NOT applied otherwise, so the
  // baseline configurations see the original layout). `csr` is copied into
  // the solver; the original need not outlive it.
  RdbsSolver(const Csr& csr, gpusim::DeviceSpec device,
             GpuSsspOptions options = {});

  // SSSP from a source in the ORIGINAL vertex numbering; distances in the
  // result are mapped back to original ids.
  GpuRunResult solve(VertexId source);

  // Optional per-vertex upper bounds in the ORIGINAL vertex numbering
  // (GpuSsspOptions::warm_start semantics; kInfiniteDistance = no bound),
  // mapped through the PRO permutation on the way in. The caller owns
  // `bounds`; the pointer must stay valid until the next set_warm_start()
  // or solver destruction. nullptr detaches.
  void set_warm_start(const std::vector<graph::Distance>* bounds);

  const Csr& engine_graph() const { return graph_; }
  const GpuSsspOptions& options() const { return engine_->options(); }
  // Preprocessing (reordering) time on the host, milliseconds. The paper
  // reports SSSP kernel time only; preprocessing is a one-off per graph.
  double preprocessing_ms() const { return preprocessing_ms_; }

 private:
  Csr graph_;                       // engine-facing (possibly reordered) CSR
  reorder::Permutation perm_;       // identity when PRO is off
  bool permuted_ = false;
  double preprocessing_ms_ = 0;
  std::unique_ptr<GpuDeltaStepping> engine_;
  // Warm bounds in engine numbering: a member so the pointer handed to the
  // engine stays valid across its retry attempts.
  std::vector<graph::Distance> warm_engine_;
};

}  // namespace rdbs::core

#include "core/gpu_sssp.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/macros.hpp"

namespace rdbs::core {

namespace {

// Cells of the queue control buffer (atomically claimed cursors).
constexpr std::uint64_t kTailCell[1] = {0};
constexpr std::uint64_t kHeadCell[1] = {1};

}  // namespace

GpuDeltaStepping::GpuDeltaStepping(gpusim::DeviceSpec device, const Csr& csr,
                                   GpuSsspOptions options)
    : GpuDeltaStepping(EngineDevice(std::move(device), csr, options.sanitize,
                                    options.fault),
                       csr, options) {}

GpuDeltaStepping::GpuDeltaStepping(EngineDevice device, const Csr& csr,
                                   GpuSsspOptions options)
    : RecoverableEngine(std::move(device), csr, options.retry),
      options_(options) {
  if (options_.pro) {
    RDBS_CHECK_MSG(csr_.weights_sorted_per_vertex(),
                   "PRO requires weight-sorted adjacency "
                   "(run reorder::property_driven_reorder first)");
    RDBS_CHECK_MSG(csr_.has_heavy_offsets(),
                   "PRO requires heavy offsets attached to the CSR");
  }
  const VertexId n = csr_.num_vertices();
  gpusim::GpuSim& sim = this->sim();
  if (options_.pro) {
    // Per-engine mirror (not shared): phase-1 offset maintenance stores
    // query-specific values when Δ is readjusted.
    heavy_offsets_ = sim.alloc<EdgeIndex>("heavy_offsets", n, kDeviceWord);
    std::copy(csr_.heavy_offsets().begin(), csr_.heavy_offsets().end(),
              heavy_offsets_.data().begin());
    sim.mark_initialized(heavy_offsets_);  // H2D upload
  }
  dist_ = sim.alloc<Distance>("dist", n, kDeviceWord);
  queue_ = sim.alloc<VertexId>("queue", std::max<std::size_t>(n, 64),
                               kDeviceWord);
  // Queue cursors ([0]=tail, [1]=head), claimed with warp-aggregated
  // atomics. Host-initialized at upload time (cudaMemset).
  queue_ctrl_ = sim.alloc<std::uint32_t>("queue_ctrl", 2, kDeviceWord);
  sim.mark_initialized(queue_ctrl_);
  in_queue_ = sim.alloc<std::uint8_t>("in_queue", n, 1);
  epoch_.assign(n, ~0ull);
  ctx_.set_warm_start(options_.warm_start);
}

EdgeIndex GpuDeltaStepping::light_end(VertexId v, Weight delta) const {
  if (!options_.pro) return csr_.row_end(v);
  const auto weights = csr_.edge_weights(v);
  const auto* split =
      std::lower_bound(weights.data(), weights.data() + weights.size(), delta);
  return csr_.row_begin(v) + static_cast<EdgeIndex>(split - weights.data());
}

void GpuDeltaStepping::charge_enqueue(gpusim::WarpCtx& ctx,
                                      std::uint32_t lanes) {
  if (lanes == 0) return;
  // Warp-aggregated queue append (enqueue() already performed the
  // functional writes and advanced queue_tail_, so the warp's slots are the
  // `lanes` positions just below the tail): one tail atomic for the warp on
  // the control cell, a flag atomicExch per enqueued vertex, and a volatile
  // (st.cg) store of the vertex ids into the claimed ring slots — volatile
  // because concurrent warps of the same persistent kernel pop these slots,
  // so a plain cached store would race with the pop (gsan: race-rw).
  std::array<std::uint64_t, 32> slot{};
  std::array<std::uint64_t, 32> flag{};
  for (std::uint32_t i = 0; i < lanes; ++i) {
    slot[i] = (queue_tail_ - lanes + i) % queue_.size();
    flag[i] = queue_[slot[i]];  // the vertex id enqueue() put there
  }
  ctx.atomic_touch(queue_ctrl_, std::span<const std::uint64_t>(kTailCell, 1));
  ctx.atomic_touch(in_queue_,
                   std::span<const std::uint64_t>(flag.data(), lanes));
  ctx.volatile_touch(queue_, std::span<const std::uint64_t>(slot.data(), lanes),
                     /*is_store=*/true);
}

void GpuDeltaStepping::seed_queue(VertexId source, Weight hi, bool warm) {
  // The host seeds the ring with the source vertex — modeled as an H2D
  // upload (the claimed slots plus the in-queue flags), so the cursors and
  // the first pops' slot reads are accounted for.
  vqueue_.push_back(source);
  in_queue_[source] = 1;
  queue_[0] = source;
  queue_tail_ = 1;
  sim().mark_initialized(in_queue_, source, 1);
  // Warm start: vertices seeded inside the initial window join the seed
  // frontier here. Later windows are collected by the phase-2/3 scan over
  // the live distances, but nothing scans ahead of the first window.
  if (warm) {
    for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
      if (v == source || in_queue_[v] != 0) continue;
      if (dist_[v] >= hi) continue;  // also skips untouched infinities
      in_queue_[v] = 1;
      queue_[queue_tail_ % queue_.size()] = v;
      ++queue_tail_;
      vqueue_.push_back(v);
      sim().mark_initialized(in_queue_, v, 1);
    }
  }
  sim().mark_initialized(
      queue_, 0,
      static_cast<std::size_t>(
          std::min<std::uint64_t>(queue_tail_, queue_.size())));
}

void GpuDeltaStepping::enqueue(gpusim::WarpCtx& /*ctx*/, VertexId v,
                               std::uint32_t /*lanes*/) {
  // Functional side: flag-deduplicated FIFO append.
  if (in_queue_[v]) return;
  in_queue_[v] = 1;
  queue_[queue_tail_ % queue_.size()] = v;
  ++queue_tail_;
  vqueue_.push_back(v);
}

void GpuDeltaStepping::parent_warp(gpusim::WarpCtx& ctx,
                                   std::vector<VertexId>& lanes, Weight lo,
                                   Weight hi, Weight delta,
                                   std::vector<EdgeChunk>* children,
                                   BucketStats& stats) {
  (void)lo;
  const auto lane_count = static_cast<std::uint32_t>(lanes.size());
  RDBS_DCHECK(lane_count > 0 && lane_count <= 32);

  // Pop bookkeeping: one head atomic for the warp on the control cell, a
  // volatile (ld.cg) read of the vertex ids from the claimed ring slots
  // (they were written by concurrent warps' volatile stores), and an
  // atomicExch per lane clearing the in-queue flag — atomic because
  // enqueuing warps touch the same flag cells concurrently.
  std::array<std::uint64_t, 32> vidx{};
  for (std::uint32_t i = 0; i < lane_count; ++i) vidx[i] = lanes[i];
  std::span<const std::uint64_t> vspan(vidx.data(), lane_count);
  {
    std::array<std::uint64_t, 32> slot{};
    for (std::uint32_t i = 0; i < lane_count; ++i) {
      slot[i] = (queue_head_ + i) % queue_.size();
      // The pop spins until the claiming enqueuer's volatile store lands in
      // the ring slot; gsan's no-progress check verifies a satisfying write
      // (an earlier push or the host seed) actually exists.
      ctx.spin_wait(queue_, slot[i]);
    }
    queue_head_ += lane_count;
    ctx.atomic_touch(queue_ctrl_, std::span<const std::uint64_t>(kHeadCell, 1));
    ctx.volatile_touch(queue_,
                       std::span<const std::uint64_t>(slot.data(), lane_count),
                       /*is_store=*/false);
    ctx.atomic_touch(in_queue_, vspan);
    for (std::uint32_t i = 0; i < lane_count; ++i) in_queue_[lanes[i]] = 0;
  }
  // Distinct-settlement count (C_i for the Δ-controller): every vertex of
  // the current bucket passes through the queue exactly until it settles.
  for (std::uint32_t i = 0; i < lane_count; ++i) {
    if (epoch_[lanes[i]] != current_epoch_) {
      epoch_[lanes[i]] = current_epoch_;
      ++stats.converged;
    }
  }

  std::array<Distance, 32> dist_u{};
  ctx.load(dist_, vspan, std::span<Distance>(dist_u.data(), lane_count));

  RowBounds rows = load_row_bounds(ctx, graph(), vspan);

  // Light-range split per lane.
  std::array<std::uint64_t, 32> lend{};
  if (options_.pro) {
    if (delta == csr_.heavy_delta()) {
      // O(1): read the precomputed heavy offset from the row list. (The
      // functional value comes from the CSR, the charged load from the
      // device mirror, which phase-1 offset maintenance may have shifted.)
      std::array<EdgeIndex, 32> tmp{};
      ctx.load(heavy_offsets_, vspan,
               std::span<EdgeIndex>(tmp.data(), lane_count));
      for (std::uint32_t i = 0; i < lane_count; ++i) {
        lend[i] = csr_.heavy_begin(lanes[i]);
      }
    } else {
      // Δ changed (BASYN readjustment): the heavy offset in the row list is
      // maintained incrementally during phase 1 (paper §4.1: "the offset of
      // heavy edges can be changed immediately in phase 1 ... it can adapt
      // itself to the change of Δ value"). Cost: read the stale offset,
      // probe/adjust, write it back — one gather load, a couple of ALU
      // steps, one boundary weight probe and a gather store. The offset
      // traffic is volatile (ld.cg/st.cg): several warps of the same
      // persistent kernel may maintain the same vertex's offset, and the
      // paper requires the change to be "immediately" visible.
      std::array<EdgeIndex, 32> stale{};
      ctx.volatile_load(heavy_offsets_, vspan,
                        std::span<EdgeIndex>(stale.data(), lane_count));
      std::array<std::uint64_t, 32> probe{};
      for (std::uint32_t i = 0; i < lane_count; ++i) {
        lend[i] = light_end(lanes[i], delta);
        // Empty rows have no boundary edge to probe; keep the lane on
        // slot 0 (the hardware would predicate it off). Clamping to
        // row_begin would read one past the weights array for empty
        // rows at the CSR tail (row_begin == num_edges).
        probe[i] = rows.end[i] == rows.begin[i]
                       ? 0
                       : std::min<std::uint64_t>(lend[i], rows.end[i] - 1);
      }
      std::array<Weight, 32> wtmp{};
      if (graph().weights.size() != 0) {
        ctx.load(graph().weights,
                 std::span<const std::uint64_t>(probe.data(), lane_count),
                 std::span<Weight>(wtmp.data(), lane_count));
      }
      ctx.alu(2, lane_count);
      std::array<EdgeIndex, 32> fresh{};
      for (std::uint32_t i = 0; i < lane_count; ++i) fresh[i] = lend[i];
      ctx.volatile_store(heavy_offsets_, vspan,
                         std::span<const EdgeIndex>(fresh.data(), lane_count));
    }
  } else {
    for (std::uint32_t i = 0; i < lane_count; ++i) lend[i] = rows.end[i];
  }
  ctx.alu(2, lane_count);  // bucket classification / loop setup

  // ADWL: medium/large lanes spawn child chunks; small lanes run inline
  // over their light range. A spawning lane's range is emptied so it sits
  // out the inline loop.
  for (std::uint32_t i = 0; i < lane_count; ++i) {
    const std::uint64_t light_deg = lend[i] - rows.begin[i];
    rows.end[i] = lend[i];
    if (options_.adwl && children != nullptr && light_deg >= options_.beta) {
      if (light_deg >= options_.alpha) {
        ++stats.large_workload;
      } else {
        ++stats.medium_workload;
      }
      ctx.child_launch();
      append_edge_chunks(*children, lanes[i], rows.begin[i], lend[i]);
      rows.end[i] = rows.begin[i];
    } else if (options_.adwl && children != nullptr) {
      ++stats.small_workload;
    }
  }

  // Inline (thread-per-vertex) edge loop: warp pays for its slowest lane.
  for_each_lockstep_edge(
      ctx, graph(), rows, lane_count, [&](const LockstepStep& step) {
        const std::uint32_t active = step.count;
        // Without PRO every edge pays the light/heavy branch and heavy
        // lanes sit idle for the rest of the step (divergence).
        std::array<std::uint64_t, 32> relax_idx{};
        std::array<Distance, 32> relax_val{};
        std::uint32_t relax_count = 0;
        if (!options_.pro) ctx.alu(1, active);
        for (std::uint32_t i = 0; i < active; ++i) {
          if (!options_.pro && step.weight[i] >= delta) continue;  // heavy
          relax_idx[relax_count] = step.dst[i];
          relax_val[relax_count] = dist_u[step.owner[i]] + step.weight[i];
          ++relax_count;
        }
        if (relax_count == 0) return;
        ctx.alu(2, relax_count);  // add + compare
        work_.relaxations += relax_count;

        std::array<std::uint8_t, 32> improved{};
        ctx.atomic_min(
            dist_,
            std::span<const std::uint64_t>(relax_idx.data(), relax_count),
            std::span<const Distance>(relax_val.data(), relax_count),
            std::span<std::uint8_t>(improved.data(), relax_count));

        std::uint32_t enq = 0;
        for (std::uint32_t i = 0; i < relax_count; ++i) {
          if (!improved[i]) continue;
          ++work_.total_updates;
          ++stats.phase1_updates;
          if (relax_val[i] < hi) {
            const auto v = static_cast<VertexId>(relax_idx[i]);
            if (!in_queue_[v]) ++enq;
            enqueue(ctx, v, 1);
          }
        }
        if (enq > 0) {
          if (options_.adwl) {
            // Workload-list classification costs a light-degree lookup.
            ctx.alu(1, enq);
          }
          charge_enqueue(ctx, enq);
        }
      });
}

void GpuDeltaStepping::child_warp(gpusim::WarpCtx& ctx,
                                  const EdgeChunk& chunk, Weight hi,
                                  Weight delta, BucketStats& stats) {
  const std::uint32_t count = chunk.size();
  RDBS_DCHECK(count > 0 && count <= 32);
  // The chunk's 32 consecutive edges load fully coalesced.
  const Distance dist_u = ctx.load_one(dist_, chunk.vertex);
  const EdgeLanes edges =
      load_edge_chunk(ctx, graph(), chunk.begin, count);
  ctx.alu(2, count);

  // Chunks lie entirely in the light range with PRO; otherwise each lane
  // tests the branch and heavy lanes are predicated off.
  std::array<std::uint64_t, 32> relax_idx{};
  std::array<Distance, 32> relax_val{};
  std::uint32_t relax_count = 0;
  if (!options_.pro) ctx.alu(1, count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!options_.pro && edges.weight[i] >= delta) continue;
    relax_idx[relax_count] = edges.dst[i];
    relax_val[relax_count] = dist_u + edges.weight[i];
    ++relax_count;
  }
  if (relax_count == 0) return;
  work_.relaxations += relax_count;
  std::array<std::uint8_t, 32> improved{};
  ctx.atomic_min(dist_,
                 std::span<const std::uint64_t>(relax_idx.data(), relax_count),
                 std::span<const Distance>(relax_val.data(), relax_count),
                 std::span<std::uint8_t>(improved.data(), relax_count));
  std::uint32_t enq = 0;
  for (std::uint32_t i = 0; i < relax_count; ++i) {
    if (!improved[i]) continue;
    ++work_.total_updates;
    ++stats.phase1_updates;
    if (relax_val[i] < hi) {
      const auto v = static_cast<VertexId>(relax_idx[i]);
      if (!in_queue_[v]) ++enq;
      enqueue(ctx, v, 1);
    }
  }
  if (enq > 0) charge_enqueue(ctx, enq);
}

void GpuDeltaStepping::phase1_async(Weight lo, Weight hi, Weight delta,
                                    BucketStats& stats) {
  // One persistent kernel per bucket: manager threads feed worker warps
  // from the workload lists; updates are immediately visible and newly
  // activated vertices are processed in the same launch.
  sim().label_next_launch("phase1_async");
  gpusim::KernelScope kernel(sim(), gpusim::Schedule::kDynamic,
                             /*host_launch=*/true, /*warps_per_block=*/8,
                             stream());
  std::vector<EdgeChunk> children;
  std::vector<VertexId> lanes;
  while (!vqueue_.empty()) {
    lanes.clear();
    while (!vqueue_.empty() && lanes.size() < 32) {
      lanes.push_back(vqueue_.front());
      vqueue_.pop_front();
    }
    auto ctx = kernel.make_warp();
    parent_warp(ctx, lanes, lo, hi, delta,
                options_.adwl ? &children : nullptr, stats);
    kernel.commit(ctx);
    // Drain spawned child chunks before the next parent batch so their
    // updates propagate promptly (Hyper-Q concurrency: dynamically placed).
    for (const EdgeChunk& chunk : children) {
      auto cctx = kernel.make_warp();
      child_warp(cctx, chunk, hi, delta, stats);
      kernel.commit(cctx);
    }
    children.clear();
    ++stats.phase1_iterations;
  }
  kernel.finish();
}

void GpuDeltaStepping::phase1_sync(Weight lo, Weight hi, Weight delta,
                                   BucketStats& stats, AttemptContext& query) {
  // Level-synchronous: each frontier sweep is its own kernel launch with a
  // barrier (the overhead the paper's Motivation 3 quantifies).
  while (!vqueue_.empty()) {
    // Iteration boundary = a host launch boundary: the natural cancellation
    // point of the synchronous mode (the next sweep is simply not launched).
    if (query.cancelled()) break;
    // Freeze this iteration's frontier; vertices activated during the sweep
    // go to the next iteration.
    std::vector<VertexId> frontier(vqueue_.begin(), vqueue_.end());
    vqueue_.clear();
    // Functional note: the in_queue flags of frontier members stay set
    // until their parent warp pops them inside the kernel.
    sim().label_next_launch("phase1_sync");
    gpusim::KernelScope kernel(
        sim(), options_.adwl ? gpusim::Schedule::kDynamic
                             : gpusim::Schedule::kStatic,
        /*host_launch=*/true, /*warps_per_block=*/8, stream());
    std::vector<EdgeChunk> children;
    std::vector<VertexId> lanes;
    for (std::size_t i = 0; i < frontier.size(); i += 32) {
      lanes.assign(frontier.begin() + static_cast<std::ptrdiff_t>(i),
                   frontier.begin() +
                       static_cast<std::ptrdiff_t>(
                           std::min(frontier.size(), i + 32)));
      auto ctx = kernel.make_warp();
      parent_warp(ctx, lanes, lo, hi, delta,
                  options_.adwl ? &children : nullptr, stats);
      kernel.commit(ctx);
    }
    for (const EdgeChunk& chunk : children) {
      auto cctx = kernel.make_warp();
      child_warp(cctx, chunk, hi, delta, stats);
      kernel.commit(cctx);
    }
    kernel.finish();
    sim().host_barrier(stream());
    ++stats.phase1_iterations;
    ++work_.iterations;
  }
}

GpuDeltaStepping::ScanOutcome GpuDeltaStepping::phase23(
    Weight lo, Weight hi, Weight delta, Weight next_lo, Weight next_hi,
    bool relax_heavy) {
  const VertexId n = csr_.num_vertices();
  const std::uint64_t warps = (n + 31) / 32;
  ScanOutcome outcome;

  // Flattened heavy-edge work list of this bucket's settled vertices. The
  // paper's phase 2 "coarsely assign[s] the same number of heavy edges" to
  // each thread, so relaxation work is chunked EVENLY across warps rather
  // than per source vertex — without this, degree-clustered orderings pile
  // all hub heavy edges onto a few strips/SMs.
  std::vector<std::pair<EdgeIndex, VertexId>> heavy_edges;

  // Strip body: identify lanes settled in [lo, hi), charge their row-bound
  // loads, and append their heavy ranges to the flattened list.
  auto collect_settled = [&](gpusim::WarpCtx& ctx, std::uint64_t begin,
                             std::span<const Distance> dist_vals) {
    const std::uint64_t end = std::min<std::uint64_t>(begin + 32, n);
    std::array<std::uint64_t, 32> idx{};
    std::uint32_t cnt = 0;
    for (std::uint64_t v = begin; v < end; ++v) {
      const Distance d = dist_vals[static_cast<std::size_t>(v - begin)];
      if (d < lo || d >= hi) continue;
      idx[cnt++] = v;
      const EdgeIndex h =
          options_.pro ? light_end(static_cast<VertexId>(v), delta)
                       : csr_.row_begin(static_cast<VertexId>(v));
      for (EdgeIndex e = h; e < csr_.row_end(static_cast<VertexId>(v)); ++e) {
        heavy_edges.emplace_back(e, static_cast<VertexId>(v));
      }
      ++outcome.converged;
    }
    if (cnt == 0) return;
    ctx.alu(2, cnt);
    std::array<EdgeIndex, 32> tmp{};
    ctx.load(graph().row_offsets,
             std::span<const std::uint64_t>(idx.data(), cnt),
             std::span<EdgeIndex>(tmp.data(), cnt));
    if (options_.pro) {
      ctx.load(heavy_offsets_, std::span<const std::uint64_t>(idx.data(), cnt),
               std::span<EdgeIndex>(tmp.data(), cnt));
    }
  };

  // One 32-edge chunk of the flattened heavy work list.
  auto heavy_chunk = [&](gpusim::WarpCtx& ctx, std::size_t base) {
    const auto cnt = static_cast<std::uint32_t>(
        std::min<std::size_t>(32, heavy_edges.size() - base));
    std::array<std::uint64_t, 32> eidx{};
    for (std::uint32_t i = 0; i < cnt; ++i) {
      eidx[i] = heavy_edges[base + i].first;
    }
    EdgeLanes edges;
    load_edges(ctx, graph(),
               std::span<const std::uint64_t>(eidx.data(), cnt), edges);
    if (!options_.pro) ctx.alu(1, cnt);  // heavy test branch

    std::array<std::uint64_t, 32> relax_idx{};
    std::array<Distance, 32> relax_val{};
    std::uint32_t relax_count = 0;
    for (std::uint32_t i = 0; i < cnt; ++i) {
      if (!options_.pro && edges.weight[i] < delta) continue;  // light: done
      const VertexId u = heavy_edges[base + i].second;
      relax_idx[relax_count] = edges.dst[i];
      relax_val[relax_count] = dist_[u] + edges.weight[i];
      ++relax_count;
    }
    if (relax_count == 0) return;
    ctx.alu(2, relax_count);
    work_.relaxations += relax_count;
    std::array<std::uint8_t, 32> improved{};
    ctx.atomic_min(dist_,
                   std::span<const std::uint64_t>(relax_idx.data(), relax_count),
                   std::span<const Distance>(relax_val.data(), relax_count),
                   std::span<std::uint8_t>(improved.data(), relax_count));
    std::uint32_t enq = 0;
    for (std::uint32_t i = 0; i < relax_count; ++i) {
      if (!improved[i]) continue;
      ++work_.total_updates;
      // An improvement landing in the next bucket is enqueued directly by
      // the relaxing thread (the collection strip may already have passed
      // its id).
      if (relax_val[i] >= next_lo && relax_val[i] < next_hi) {
        const auto v = static_cast<VertexId>(relax_idx[i]);
        if (!in_queue_[v]) ++enq;
        enqueue(ctx, v, 1);
      }
    }
    if (enq > 0) charge_enqueue(ctx, enq);
  };

  // Collection body: enqueue lanes in [next_lo, next_hi). Decisions use the
  // CURRENT distance (dist_), not the strip values loaded at warp start:
  // heavy relaxations in the same kernel are visible through the atomics,
  // and heavy_chunk's direct-enqueue covers updates that land after a strip
  // was scanned. The strip load above still pays the cost.
  auto collect_part = [&](gpusim::WarpCtx& ctx, std::uint64_t begin,
                          std::span<const Distance> /*dist_vals*/) {
    const std::uint64_t end = std::min<std::uint64_t>(begin + 32, n);
    ctx.alu(3, 32);  // range classification + warp min-reduce step
    std::uint32_t enq = 0;
    for (std::uint64_t v = begin; v < end; ++v) {
      const Distance d = dist_[v];
      if (d == graph::kInfiniteDistance) continue;
      if (d >= next_lo && d < next_hi) {
        const auto vid = static_cast<VertexId>(v);
        if (!in_queue_[vid]) ++enq;
        enqueue(ctx, vid, 1);
      }
    }
    if (enq > 0) charge_enqueue(ctx, enq);
  };

  auto load_strip = [&](gpusim::WarpCtx& ctx, std::uint64_t begin,
                        std::span<Distance> out) {
    const std::uint64_t end = std::min<std::uint64_t>(begin + 32, n);
    std::array<std::uint64_t, 32> idx{};
    const auto cnt = static_cast<std::uint32_t>(end - begin);
    for (std::uint32_t i = 0; i < cnt; ++i) idx[i] = begin + i;
    ctx.load(dist_, std::span<const std::uint64_t>(idx.data(), cnt),
             out.subspan(0, cnt));
  };

  auto process_heavy_chunks = [&](gpusim::KernelScope& kernel) {
    for (std::size_t base = 0; base < heavy_edges.size(); base += 32) {
      auto ctx = kernel.make_warp();
      heavy_chunk(ctx, base);
      kernel.commit(ctx);
    }
  };

  const bool fused = options_.adwl;  // kernel fusion rides with ADWL (§4.2)
  if (fused) {
    sim().label_next_launch("phase23_fused");
    gpusim::KernelScope kernel(sim(), gpusim::Schedule::kStatic, true,
                               /*warps_per_block=*/8, stream());
    for (std::uint64_t w = 0; w < warps; ++w) {
      auto ctx = kernel.make_warp();
      std::array<Distance, 32> dist_vals{};
      load_strip(ctx, w * 32, dist_vals);
      if (relax_heavy) collect_settled(ctx, w * 32, dist_vals);
      collect_part(ctx, w * 32, dist_vals);
      kernel.commit(ctx);
    }
    if (relax_heavy) process_heavy_chunks(kernel);
    kernel.finish();
  } else {
    if (relax_heavy) {
      sim().label_next_launch("phase2");
      gpusim::KernelScope phase2(sim(), gpusim::Schedule::kStatic, true,
                                 /*warps_per_block=*/8, stream());
      for (std::uint64_t w = 0; w < warps; ++w) {
        auto ctx = phase2.make_warp();
        std::array<Distance, 32> dist_vals{};
        load_strip(ctx, w * 32, dist_vals);
        collect_settled(ctx, w * 32, dist_vals);
        phase2.commit(ctx);
      }
      process_heavy_chunks(phase2);
      phase2.finish();
      sim().host_barrier(stream());
    }
    sim().label_next_launch("phase3");
    gpusim::KernelScope phase3(sim(), gpusim::Schedule::kStatic, true,
                               /*warps_per_block=*/8, stream());
    for (std::uint64_t w = 0; w < warps; ++w) {
      auto ctx = phase3.make_warp();
      std::array<Distance, 32> dist_vals{};
      load_strip(ctx, w * 32, dist_vals);
      collect_part(ctx, w * 32, dist_vals);
      phase3.commit(ctx);
    }
    phase3.finish();
    sim().host_barrier(stream());
  }

  // Final reduction (remaining count / minimum unsettled distance) over the
  // post-scan distances. On hardware this is the atomically-reduced counter
  // pair the scan kernel maintains; its cost is covered by the per-strip
  // classification ALU charged in collect_part.
  for (std::uint64_t v = 0; v < n; ++v) {
    const Distance d = dist_[v];
    if (d == graph::kInfiniteDistance) continue;
    if (d >= next_lo) {
      ++outcome.remaining;
      outcome.min_unsettled = std::min(outcome.min_unsettled, d);
    }
  }
  return outcome;
}

GpuRunResult GpuDeltaStepping::attempt(VertexId source,
                                       AttemptContext& query) {
  // A prior poisoned attempt may have left the distance region flagged
  // (recovery's bulk clear only fires when read-only data was also hit);
  // this attempt re-initializes the buffer, so the stale mark must not
  // suppress its checkpoints.
  sim().clear_buffer_poison(dist_);
  work_ = sssp::WorkStats{};
  vqueue_.clear();
  queue_tail_ = 0;
  queue_head_ = 0;

  GpuRunResult result;
  // One coalesced store of 32 distances (and queue-flag clears) per warp,
  // then dist[source] = 0.
  fill_kernel(device_, "init_distances", csr_.num_vertices(),
              Fill{dist_, graph::kInfiniteDistance},
              Fill{in_queue_, std::uint8_t{0}});
  seed_kernel(device_, source, Fill{dist_, Distance{0}});
  const std::vector<Distance>* bounds = query.upper_bounds();
  seed_upper_bounds(device_, dist_, source, bounds);

  if (options_.mode == EngineMode::kSyncPushBellmanFord) {
    // BL: plain synchronous push SSSP. One frontier sweep per kernel
    // launch; every out-edge of every active vertex is relaxed (hi = ∞
    // treats all edges as "light" and re-enqueues every improvement).
    // Warm-seeded vertices all land in the (unbounded) initial frontier.
    seed_queue(source, graph::kInfiniteDistance, bounds != nullptr);
    ++current_epoch_;
    BucketStats bs;
    bs.delta = graph::kInfiniteDistance;
    bs.high = graph::kInfiniteDistance;
    bs.initial_active = vqueue_.size();
    phase1_sync(0, graph::kInfiniteDistance, graph::kInfiniteDistance, bs,
                query);
    result.buckets.push_back(bs);
    result.sssp.distances = dist_.data();
    result.sssp.work = work_;
    return result;
  }

  DeltaController controller(options_.delta0, /*adaptive=*/options_.basyn);
  Weight delta = controller.current_delta();
  Weight lo = 0;
  Weight hi = delta;
  seed_queue(source, hi, bounds != nullptr);

  // Guard against pathological non-termination (cannot occur with
  // non-negative weights, but an experiment harness should fail loudly,
  // not hang).
  const std::uint64_t max_buckets =
      16 * (csr_.num_vertices() + 64);

  std::uint64_t bucket_count = 0;
  while (true) {
    if (++bucket_count >= max_buckets) {
      // Impossible with intact data; a poisoned attempt (corrupted
      // distances) may legitimately spiral and is abandoned here — the
      // retry driver discards it anyway.
      RDBS_CHECK_MSG(query.poisoned(), "bucket loop runaway");
      break;
    }
    if (sim().device_lost()) break;  // attempt is void; stop burning work
    // Bucket boundary: the async mode's cancellation point (a persistent
    // phase-1 kernel runs its bucket to completion — a launched grid cannot
    // be revoked — but the next bucket is never launched).
    if (query.cancelled()) break;
    ++current_epoch_;
    BucketStats bs;
    bs.delta = delta;
    bs.low = lo;
    bs.high = hi;
    bs.initial_active = vqueue_.size();

    const std::uint64_t threads_before = sim().counters().active_lane_ops;
    const double ms_before_phase1 = sim().stream_elapsed_ms(stream());
    if (!vqueue_.empty()) {
      if (options_.basyn) {
        phase1_async(lo, hi, delta, bs);
      } else {
        phase1_sync(lo, hi, delta, bs, query);
      }
    }
    bs.threads_used = sim().counters().active_lane_ops - threads_before;
    bs.phase1_ms = sim().stream_elapsed_ms(stream()) - ms_before_phase1;

    // Δ readjustment (Algorithm 2, line 11): after phase 1, using this
    // bucket's converged count and thread usage, before phases 2&3 collect
    // the next bucket with the readjusted width.
    controller.record_bucket(bs.converged, bs.threads_used);
    const Weight delta_next = controller.current_delta();

    Weight next_lo = hi;
    Weight next_hi = next_lo + delta_next;
    const double ms_before_phase23 = sim().stream_elapsed_ms(stream());
    const ScanOutcome outcome =
        phase23(lo, hi, delta, next_lo, next_hi, /*relax_heavy=*/true);
    bs.phase23_ms = sim().stream_elapsed_ms(stream()) - ms_before_phase23;
    // The scan's settled count must agree with the queue-side count: every
    // vertex of the bucket passed through the queue exactly once.
    RDBS_DCHECK(outcome.converged == bs.converged || query.poisoned());
    result.buckets.push_back(bs);
    // Bucket boundary: the tentative distances are a consistent set of
    // upper bounds here — snapshot them for checkpoint-resume.
    query.checkpoint_boundary(dist_, options_.checkpoint_interval);

    if (vqueue_.empty()) {
      if (outcome.remaining == 0) break;
      // Distance gap: jump to the smallest unsettled distance and
      // re-collect (one extra scan, no heavy relaxation).
      next_lo = outcome.min_unsettled;
      next_hi = next_lo + delta_next;
      const ScanOutcome jump =
          phase23(hi, hi, delta, next_lo, next_hi, /*relax_heavy=*/false);
      if (vqueue_.empty() && jump.remaining != 0) {
        // A flip between the two scans can shift the observed minimum; the
        // attempt is poisoned and abandoned rather than aborting.
        RDBS_CHECK_MSG(query.poisoned(),
                       "jump scan failed to find the minimum vertex");
        break;
      }
      if (vqueue_.empty()) break;
    }
    lo = next_lo;
    hi = next_hi;
    delta = hi - lo;
  }

  result.sssp.distances = dist_.data();
  result.sssp.work = work_;
  return result;
}

}  // namespace rdbs::core

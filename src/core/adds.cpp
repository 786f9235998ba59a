#include "core/adds.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "common/macros.hpp"
#include "core/recovery.hpp"

namespace rdbs::core {

using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

namespace {
constexpr std::uint32_t kDeviceWord = 4;
// Cells of the queue control buffer (atomically claimed cursors).
constexpr std::uint64_t kNearTailCell[1] = {0};
constexpr std::uint64_t kNearHeadCell[1] = {1};
constexpr std::uint64_t kFarTailCell[1] = {2};
}

AddsLike::AddsLike(gpusim::DeviceSpec device, const graph::Csr& csr,
                   AddsOptions options)
    : owned_sim_(std::make_unique<gpusim::GpuSim>(std::move(device))),
      sim_(owned_sim_.get()),
      csr_(csr),
      options_(options) {
  if (options_.sanitize != gpusim::SanitizeMode::kOff) {
    sim_->enable_sanitizer(options_.sanitize);
  }
  if (options_.fault.enabled) sim_->enable_fault_injection(options_.fault);
  init_device_state(nullptr);
}

AddsLike::AddsLike(gpusim::GpuSim& sim, gpusim::StreamId stream,
                   const graph::Csr& csr, AddsOptions options,
                   const DeviceCsrBuffers* shared_graph)
    : sim_(&sim), stream_(stream), csr_(csr), options_(options) {
  // Never *disable* here: in shared-sim mode the batch owns the setting.
  if (options_.sanitize != gpusim::SanitizeMode::kOff) {
    sim_->enable_sanitizer(options_.sanitize);
  }
  if (options_.fault.enabled) sim_->enable_fault_injection(options_.fault);
  init_device_state(shared_graph);
}

void AddsLike::init_device_state(const DeviceCsrBuffers* shared_graph) {
  RDBS_CHECK(options_.delta > 0);
  const VertexId n = csr_.num_vertices();
  const EdgeIndex m = csr_.num_edges();
  if (shared_graph != nullptr) {
    graph_bufs_ = shared_graph;
  } else {
    owned_graph_ = std::make_unique<DeviceCsrBuffers>(
        DeviceCsrBuffers::upload(*sim_, csr_));
    graph_bufs_ = owned_graph_.get();
  }
  dist_ = sim_->alloc<Distance>("dist", n, kDeviceWord);
  near_queue_ = sim_->alloc<VertexId>("near_queue",
                                      std::max<std::size_t>(n, 64), kDeviceWord);
  // The Far pile admits duplicates (lazy deletion at split time).
  far_pile_ = sim_->alloc<VertexId>("far_pile",
                                    std::max<std::size_t>(2 * m + 64, 64),
                                    kDeviceWord);
  queue_ctrl_ = sim_->alloc<std::uint32_t>("queue_ctrl", 3, kDeviceWord);
  sim_->mark_initialized(queue_ctrl_);
  in_near_ = sim_->alloc<std::uint8_t>("in_near", n, 1);
}

void AddsLike::init_distances_kernel(VertexId source) {
  const VertexId n = csr_.num_vertices();
  const std::uint64_t warps = (n + 31) / 32;
  sim_->label_next_launch("init_distances");
  sim_->run_kernel(
      gpusim::Schedule::kStatic, warps, 8,
      [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
        const std::uint64_t begin = w * 32;
        const std::uint64_t end = std::min<std::uint64_t>(begin + 32, n);
        std::array<std::uint64_t, 32> idx{};
        std::array<Distance, 32> inf{};
        std::array<std::uint8_t, 32> zero{};
        const auto lanes = static_cast<std::size_t>(end - begin);
        for (std::size_t i = 0; i < lanes; ++i) {
          idx[i] = begin + i;
          inf[i] = graph::kInfiniteDistance;
          zero[i] = 0;
        }
        ctx.store(dist_, std::span<const std::uint64_t>(idx.data(), lanes),
                  std::span<const Distance>(inf.data(), lanes));
        ctx.store(in_near_, std::span<const std::uint64_t>(idx.data(), lanes),
                  std::span<const std::uint8_t>(zero.data(), lanes));
      },
      /*host_launch=*/true, stream_);
  sim_->label_next_launch("seed_source");
  sim_->run_kernel(gpusim::Schedule::kStatic, 1, 1,
                  [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                    ctx.store_one(dist_, source, Distance{0});
                  },
                  /*host_launch=*/true, stream_);
}

GpuRunResult AddsLike::run(VertexId source) {
  if (source >= csr_.num_vertices()) {
    throw std::out_of_range("AddsLike: source vertex out of range");
  }
  // A stale snapshot must never seed a different query; resume bounds are
  // one-shot (see GpuDeltaStepping::run).
  checkpoint_.clear();
  GpuRunResult result = run_with_recovery(
      *sim_, stream_, options_.retry, csr_, source,
      [&] { return run_attempt(source); }, cancel_,
      [&] { return resume_from_checkpoint(); });
  resume_bounds_.clear();
  return result;
}

void AddsLike::set_resume_bounds(std::vector<Distance> bounds) {
  RDBS_CHECK_MSG(bounds.size() == csr_.num_vertices(),
                 "resume bounds must cover every vertex");
  resume_bounds_ = std::move(bounds);
}

const std::vector<Distance>* AddsLike::effective_warm_bounds() const {
  return resume_bounds_.empty() ? options_.warm_start : &resume_bounds_;
}

bool AddsLike::resume_from_checkpoint() {
  if (!checkpoint_.valid()) return false;
  resume_bounds_ = checkpoint_.bounds;
  return true;
}

void AddsLike::maybe_checkpoint() {
  if (options_.checkpoint_interval <= 0) return;
  ++boundary_count_;
  if (boundary_count_ %
          static_cast<std::uint64_t>(options_.checkpoint_interval) !=
      0) {
    return;
  }
  // A tainted attempt stops checkpointing — a corrupted bound could lie
  // below the true distance (core/checkpoint.hpp). The last good snapshot
  // stands.
  if (attempt_poisoned() || sim_->buffer_poisoned(dist_)) return;
  checkpoint_.bounds = dist_.data();
  sim_->memcpy_d2h(csr_.num_vertices() * kCheckpointWordBytes, stream_);
  checkpoint_.taken_ms = sim_->stream_elapsed_ms(stream_);
  checkpoint_.boundaries = boundary_count_;
  ++checkpoint_.snapshots;
}

bool AddsLike::check_cancelled() {
  if (!attempt_cancelled_ && cancel_ != nullptr && cancel_->expired()) {
    attempt_cancelled_ = true;
  }
  return attempt_cancelled_;
}

bool AddsLike::attempt_poisoned() const {
  if (sim_->fault_injector() == nullptr) return false;
  if (sim_->device_lost()) return true;
  const auto& log = sim_->fault_log();
  for (std::size_t i = fault_scan_begin_; i < log.size(); ++i) {
    if (log[i].poisons()) return true;
  }
  return false;
}

GpuRunResult AddsLike::run_attempt(VertexId source) {
  fault_scan_begin_ = sim_->fault_log().size();
  attempt_cancelled_ = false;
  boundary_count_ = 0;
  // Stale poison from a discarded attempt must not suppress this attempt's
  // checkpoints — the buffer is re-initialized below (see GpuDeltaStepping).
  sim_->clear_buffer_poison(dist_);
  if (owned_sim_) sim_->reset_all();
  const double ms_before = sim_->stream_elapsed_ms(stream_);
  const double wait_before = sim_->stream_queue_wait_ms(stream_);
  const gpusim::Counters counters_before = sim_->counters();
  work_ = sssp::WorkStats{};
  std::fill(in_near_.data().begin(), in_near_.data().end(), 0);

  GpuRunResult result;
  init_distances_kernel(source);

  // Warm start (docs/serving.md "Result cache"): caller-provided upper
  // bounds overwrite the infinite tentative distances — one H2D upload of
  // the finite bounds; the source keeps its exact 0. Near-Far is
  // label-correcting, so valid upper bounds preserve exactness.
  std::uint64_t warm_seeded = 0;
  if (effective_warm_bounds() != nullptr) {
    const std::vector<Distance>& bounds = *effective_warm_bounds();
    RDBS_CHECK_MSG(bounds.size() == csr_.num_vertices(),
                   "warm_start bounds must cover every vertex");
    for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
      if (v == source || bounds[v] == graph::kInfiniteDistance) continue;
      dist_[v] = bounds[v];
      ++warm_seeded;
    }
    if (warm_seeded > 0) sim_->memcpy_h2d(warm_seeded * kDeviceWord, stream_);
  }

  // Host seed modeled as an H2D upload of the claimed ring slots + flags.
  // Warm-seeded vertices below the first threshold join the Near seed;
  // the rest start on the Far pile (the split reads the live distances, so
  // entries improved below the threshold in the meantime drop as stale —
  // the same lazy-deletion rule every pushed duplicate follows).
  std::deque<VertexId> near{source};
  in_near_[source] = 1;
  near_queue_[0] = source;
  std::vector<VertexId> far;
  std::uint64_t near_tail = 1;
  std::uint64_t near_head = 0;
  std::uint64_t far_tail = 0;
  Distance threshold = options_.delta;
  if (warm_seeded > 0) {
    for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
      if (v == source || dist_[v] == graph::kInfiniteDistance) continue;
      if (dist_[v] < threshold) {
        in_near_[v] = 1;
        near.push_back(v);
        near_queue_[near_tail % near_queue_.size()] = v;
        ++near_tail;
        sim_->mark_initialized(in_near_, v, 1);
      } else {
        far.push_back(v);
        far_pile_[far_tail % far_pile_.size()] = v;
        ++far_tail;
      }
    }
    if (far_tail > 0) {
      sim_->mark_initialized(
          far_pile_, 0,
          static_cast<std::size_t>(
              std::min<std::uint64_t>(far_tail, far_pile_.size())));
    }
  }
  sim_->mark_initialized(
      near_queue_, 0,
      static_cast<std::size_t>(
          std::min<std::uint64_t>(near_tail, near_queue_.size())));
  sim_->mark_initialized(in_near_, source, 1);

  // Warp-aggregated pile append: one tail atomic for the warp on the
  // control cell, an atomicExch per near flag, and a volatile (st.cg) store
  // of the vertex ids into the claimed ring slots — concurrent warps of the
  // same persistent kernel pop/re-split these slots, so plain cached stores
  // would race. The caller already appended `ids` to the host mirror.
  auto charge_push = [&](gpusim::WarpCtx& ctx, std::span<const VertexId> ids,
                         bool to_near) {
    const auto lanes = static_cast<std::uint32_t>(ids.size());
    if (lanes == 0) return;
    std::array<std::uint64_t, 32> slot{};
    std::uint64_t& tail = to_near ? near_tail : far_tail;
    auto& buf = to_near ? near_queue_ : far_pile_;
    for (std::uint32_t i = 0; i < lanes; ++i) {
      slot[i] = (tail + i) % buf.size();
      buf[slot[i]] = ids[i];
    }
    ctx.atomic_touch(queue_ctrl_,
                     std::span<const std::uint64_t>(
                         to_near ? kNearTailCell : kFarTailCell, 1));
    if (to_near) {
      std::array<std::uint64_t, 32> flag{};
      for (std::uint32_t i = 0; i < lanes; ++i) flag[i] = ids[i];
      ctx.atomic_touch(in_near_,
                       std::span<const std::uint64_t>(flag.data(), lanes));
    }
    ctx.volatile_touch(buf, std::span<const std::uint64_t>(slot.data(), lanes),
                       /*is_store=*/true);
    tail += lanes;
  };

  while (!near.empty() || !far.empty()) {
    if (sim_->device_lost()) break;  // attempt is void; recovery takes over
    // Round boundary (a near drain or a far split is one launch): the
    // Near-Far cancellation point.
    if (check_cancelled()) break;
    if (near.empty()) {
      // --- Far split: advance the threshold past the smallest far
      // distance, promote entries below it, drop stale duplicates.
      Distance min_far = graph::kInfiniteDistance;
      std::vector<VertexId> still_far;
      // The live entries occupy the last far.size() pile slots (every push
      // went through charge_push, so pushes and slots are in lockstep).
      const std::uint64_t pile_base = far_tail - far.size();
      sim_->label_next_launch("far_split");
      gpusim::KernelScope split(*sim_, gpusim::Schedule::kStatic, true,
                                /*warps_per_block=*/8, stream_);
      for (std::size_t base = 0; base < far.size(); base += 32) {
        const auto cnt = static_cast<std::uint32_t>(
            std::min<std::size_t>(32, far.size() - base));
        auto ctx = split.make_warp();
        std::array<std::uint64_t, 32> vidx{};
        std::array<std::uint64_t, 32> slot{};
        std::array<Distance, 32> dvals{};
        for (std::uint32_t i = 0; i < cnt; ++i) {
          vidx[i] = far[base + i];
          slot[i] = (pile_base + base + i) % far_pile_.size();
        }
        // Read the pile slots (volatile — written by concurrent warps'
        // st.cg appends) and the current distances of the entries. Each
        // slot consumed here must have been published by a push (gsan
        // no-progress).
        for (std::uint32_t i = 0; i < cnt; ++i) {
          ctx.spin_wait(far_pile_, slot[i]);
        }
        ctx.volatile_touch(far_pile_,
                           std::span<const std::uint64_t>(slot.data(), cnt),
                           /*is_store=*/false);
        ctx.load(dist_, std::span<const std::uint64_t>(vidx.data(), cnt),
                 std::span<Distance>(dvals.data(), cnt));
        ctx.alu(2, cnt);
        for (std::uint32_t i = 0; i < cnt; ++i) {
          // Entries already settled below the old threshold are stale.
          if (dvals[i] < threshold) continue;
          min_far = std::min(min_far, dvals[i]);
        }
        split.commit(ctx);
      }
      // Second pass with the advanced threshold does the actual promotion.
      if (min_far == graph::kInfiniteDistance) {
        split.finish();
        break;  // only stale entries remained
      }
      const Distance old_threshold = threshold;
      while (threshold <= min_far) threshold += options_.delta;
      for (std::size_t base = 0; base < far.size(); base += 32) {
        const auto cnt = static_cast<std::uint32_t>(
            std::min<std::size_t>(32, far.size() - base));
        auto ctx = split.make_warp();
        std::array<std::uint64_t, 32> vidx{};
        std::array<Distance, 32> dvals{};
        for (std::uint32_t i = 0; i < cnt; ++i) vidx[i] = far[base + i];
        ctx.load(dist_, std::span<const std::uint64_t>(vidx.data(), cnt),
                 std::span<Distance>(dvals.data(), cnt));
        ctx.alu(2, cnt);
        std::array<VertexId, 32> promoted{};
        std::array<VertexId, 32> kept{};
        std::uint32_t promoted_count = 0;
        std::uint32_t kept_count = 0;
        for (std::uint32_t i = 0; i < cnt; ++i) {
          const VertexId v = far[base + i];
          const Distance d = dvals[i];
          if (d == graph::kInfiniteDistance) continue;
          if (d < old_threshold) continue;  // settled below old window: stale
          if (d < threshold) {
            if (!in_near_[v]) {
              in_near_[v] = 1;
              near.push_back(v);
              promoted[promoted_count++] = v;
            }
          } else {
            still_far.push_back(v);
            kept[kept_count++] = v;
          }
        }
        charge_push(ctx, std::span<const VertexId>(promoted.data(),
                                                   promoted_count),
                    /*to_near=*/true);
        charge_push(ctx, std::span<const VertexId>(kept.data(), kept_count),
                    /*to_near=*/false);
        split.commit(ctx);
      }
      split.finish();
      far.swap(still_far);
      // Round boundary (far split done): consistent upper bounds —
      // snapshot for checkpoint-resume.
      maybe_checkpoint();
      continue;
    }

    // --- Near processing: one persistent asynchronous kernel that drains
    // the Near pile, thread-per-vertex, relaxing ALL edges of each vertex
    // (no light/heavy split in ADDS's data layout).
    sim_->label_next_launch("near_relax");
    gpusim::KernelScope kernel(*sim_, gpusim::Schedule::kDynamic, true,
                               /*warps_per_block=*/8, stream_);
    while (!near.empty()) {
      std::array<VertexId, 32> lanes{};
      std::uint32_t lane_count = 0;
      while (!near.empty() && lane_count < 32) {
        lanes[lane_count++] = near.front();
        near.pop_front();
      }
      auto ctx = kernel.make_warp();

      std::array<std::uint64_t, 32> vidx{};
      for (std::uint32_t i = 0; i < lane_count; ++i) vidx[i] = lanes[i];
      std::span<const std::uint64_t> vspan(vidx.data(), lane_count);
      {
        // Pop: one head atomic for the warp, a volatile read of the claimed
        // ring slots, and an atomicExch per lane clearing the near flag.
        // The slots the warp spins on must be satisfiable by some push or
        // the host seed (gsan no-progress).
        std::array<std::uint64_t, 32> slot{};
        for (std::uint32_t i = 0; i < lane_count; ++i) {
          slot[i] = (near_head + i) % near_queue_.size();
          ctx.spin_wait(near_queue_, slot[i]);
        }
        near_head += lane_count;
        ctx.atomic_touch(queue_ctrl_,
                         std::span<const std::uint64_t>(kNearHeadCell, 1));
        ctx.volatile_touch(
            near_queue_,
            std::span<const std::uint64_t>(slot.data(), lane_count),
            /*is_store=*/false);
        ctx.atomic_touch(in_near_, vspan);
      }
      for (std::uint32_t i = 0; i < lane_count; ++i) in_near_[lanes[i]] = 0;

      std::array<Distance, 32> dist_u{};
      ctx.load(dist_, vspan, std::span<Distance>(dist_u.data(), lane_count));
      std::array<std::uint64_t, 32> row_begin{};
      std::array<std::uint64_t, 32> row_end{};
      {
        std::array<std::uint64_t, 32> idx2{};
        for (std::uint32_t i = 0; i < lane_count; ++i) idx2[i] = lanes[i] + 1;
        std::array<EdgeIndex, 32> tmp{};
        ctx.load(graph_bufs_->row_offsets, vspan,
                 std::span<EdgeIndex>(tmp.data(), lane_count));
        for (std::uint32_t i = 0; i < lane_count; ++i) row_begin[i] = tmp[i];
        ctx.load(graph_bufs_->row_offsets,
                 std::span<const std::uint64_t>(idx2.data(), lane_count),
                 std::span<EdgeIndex>(tmp.data(), lane_count));
        for (std::uint32_t i = 0; i < lane_count; ++i) row_end[i] = tmp[i];
      }
      ctx.alu(2, lane_count);

      // Thread-per-vertex: the warp runs until its highest-degree lane is
      // done — ADDS's Achilles heel on hub-dominated graphs.
      std::uint64_t max_deg = 0;
      for (std::uint32_t i = 0; i < lane_count; ++i) {
        max_deg = std::max(max_deg, row_end[i] - row_begin[i]);
      }
      for (std::uint64_t s = 0; s < max_deg; ++s) {
        std::array<std::uint64_t, 32> eidx{};
        std::array<std::uint32_t, 32> lane_of{};
        std::uint32_t active = 0;
        for (std::uint32_t i = 0; i < lane_count; ++i) {
          if (row_begin[i] + s < row_end[i]) {
            eidx[active] = row_begin[i] + s;
            lane_of[active] = i;
            ++active;
          }
        }
        if (active == 0) break;
        std::span<const std::uint64_t> espan(eidx.data(), active);
        std::array<VertexId, 32> dsts{};
        std::array<Weight, 32> ws{};
        ctx.load(graph_bufs_->adjacency, espan, std::span<VertexId>(dsts.data(), active));
        ctx.load(graph_bufs_->weights, espan, std::span<Weight>(ws.data(), active));
        ctx.alu(2, active);
        work_.relaxations += active;

        std::array<std::uint64_t, 32> relax_idx{};
        std::array<Distance, 32> relax_val{};
        for (std::uint32_t i = 0; i < active; ++i) {
          relax_idx[i] = dsts[i];
          relax_val[i] = dist_u[lane_of[i]] + ws[i];
        }
        std::array<std::uint8_t, 32> improved{};
        ctx.atomic_min(dist_,
                       std::span<const std::uint64_t>(relax_idx.data(), active),
                       std::span<const Distance>(relax_val.data(), active),
                       std::span<std::uint8_t>(improved.data(), active));
        std::array<VertexId, 32> to_near{};
        std::array<VertexId, 32> to_far{};
        std::uint32_t to_near_count = 0;
        std::uint32_t to_far_count = 0;
        for (std::uint32_t i = 0; i < active; ++i) {
          if (!improved[i]) continue;
          ++work_.total_updates;
          const auto v = static_cast<VertexId>(relax_idx[i]);
          if (relax_val[i] < threshold) {
            if (!in_near_[v]) {
              in_near_[v] = 1;
              near.push_back(v);
              to_near[to_near_count++] = v;
            }
          } else {
            far.push_back(v);
            to_far[to_far_count++] = v;
          }
        }
        charge_push(ctx,
                    std::span<const VertexId>(to_near.data(), to_near_count),
                    /*to_near=*/true);
        charge_push(ctx, std::span<const VertexId>(to_far.data(), to_far_count),
                    /*to_near=*/false);
      }
      kernel.commit(ctx);
      ++work_.iterations;
    }
    kernel.finish();
    // Round boundary (near pile drained): snapshot for checkpoint-resume.
    maybe_checkpoint();
  }

  result.sssp.work = work_;
  if (check_cancelled()) {
    // Over deadline: partial metrics only, never partially relaxed
    // distances (the serving contract; docs/serving.md).
    result.ok = false;
    result.deadline_exceeded = true;
  } else {
    result.sssp.distances = dist_.data();
    sssp::finalize_valid_updates(result.sssp, source);
  }
  result.device_ms = sim_->stream_elapsed_ms(stream_) - ms_before;
  result.queue_wait_ms = sim_->stream_queue_wait_ms(stream_) - wait_before;
  result.counters = sim_->counters() - counters_before;
  if (const gpusim::Sanitizer* san = sim_->sanitizer()) {
    result.sanitizer_report = san->report();
  }
  return result;
}

}  // namespace rdbs::core

#include "core/adds.hpp"

#include <algorithm>
#include <array>

#include "common/macros.hpp"

namespace rdbs::core {

using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

namespace {
// Cells of the queue control buffer (atomically claimed cursors).
constexpr std::uint64_t kNearTailCell[1] = {0};
constexpr std::uint64_t kNearHeadCell[1] = {1};
constexpr std::uint64_t kFarTailCell[1] = {2};
}

AddsLike::AddsLike(gpusim::DeviceSpec device, const graph::Csr& csr,
                   AddsOptions options)
    : AddsLike(EngineDevice(std::move(device), csr, options.sanitize,
                            options.fault),
               csr, options) {}

AddsLike::AddsLike(EngineDevice device, const graph::Csr& csr,
                   AddsOptions options)
    : RecoverableEngine(std::move(device), csr, options.retry),
      options_(options) {
  RDBS_CHECK(options_.delta > 0);
  const VertexId n = csr_.num_vertices();
  const EdgeIndex m = csr_.num_edges();
  gpusim::GpuSim& sim = this->sim();
  dist_ = sim.alloc<Distance>("dist", n, kDeviceWord);
  near_queue_ = sim.alloc<VertexId>("near_queue",
                                    std::max<std::size_t>(n, 64), kDeviceWord);
  // The Far pile admits duplicates (lazy deletion at split time).
  far_pile_ = sim.alloc<VertexId>("far_pile",
                                  std::max<std::size_t>(2 * m + 64, 64),
                                  kDeviceWord);
  queue_ctrl_ = sim.alloc<std::uint32_t>("queue_ctrl", 3, kDeviceWord);
  sim.mark_initialized(queue_ctrl_);
  in_near_ = sim.alloc<std::uint8_t>("in_near", n, 1);
  ctx_.set_warm_start(options_.warm_start);
}

GpuRunResult AddsLike::attempt(VertexId source, AttemptContext& query) {
  // Stale poison from a discarded attempt must not suppress this attempt's
  // checkpoints — the buffer is re-initialized below (see GpuDeltaStepping).
  sim().clear_buffer_poison(dist_);
  work_ = sssp::WorkStats{};

  GpuRunResult result;
  fill_kernel(device_, "init_distances", csr_.num_vertices(),
              Fill{dist_, graph::kInfiniteDistance},
              Fill{in_near_, std::uint8_t{0}});
  seed_kernel(device_, source, Fill{dist_, Distance{0}});
  const std::uint64_t warm_seeded =
      seed_upper_bounds(device_, dist_, source, query.upper_bounds());

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
        sim().mark_initialized(in_near_, v, 1);
      } else {
        far.push_back(v);
        far_pile_[far_tail % far_pile_.size()] = v;
        ++far_tail;
      }
    }
    if (far_tail > 0) {
      sim().mark_initialized(
          far_pile_, 0,
          static_cast<std::size_t>(
              std::min<std::uint64_t>(far_tail, far_pile_.size())));
    }
  }
  sim().mark_initialized(
      near_queue_, 0,
      static_cast<std::size_t>(
          std::min<std::uint64_t>(near_tail, near_queue_.size())));
  sim().mark_initialized(in_near_, source, 1);

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
    if (sim().device_lost()) break;  // attempt is void; recovery takes over
    // Round boundary (a near drain or a far split is one launch): the
    // Near-Far cancellation point.
    if (query.cancelled()) break;
    if (near.empty()) {
      // --- Far split: advance the threshold past the smallest far
      // distance, promote entries below it, drop stale duplicates.
      Distance min_far = graph::kInfiniteDistance;
      std::vector<VertexId> still_far;
      // The live entries occupy the last far.size() pile slots (every push
      // went through charge_push, so pushes and slots are in lockstep).
      const std::uint64_t pile_base = far_tail - far.size();
      sim().label_next_launch("far_split");
      gpusim::KernelScope split(sim(), gpusim::Schedule::kStatic, true,
                                /*warps_per_block=*/8, stream());
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
      query.checkpoint_boundary(dist_, options_.checkpoint_interval);
      continue;
    }

    // --- Near processing: one persistent asynchronous kernel that drains
    // the Near pile, thread-per-vertex, relaxing ALL edges of each vertex
    // (no light/heavy split in ADDS's data layout).
    sim().label_next_launch("near_relax");
    gpusim::KernelScope kernel(sim(), gpusim::Schedule::kDynamic, true,
                               /*warps_per_block=*/8, stream());
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
      const RowBounds rows = load_row_bounds(ctx, graph(), vspan);
      ctx.alu(2, lane_count);

      // Thread-per-vertex: the warp runs until its highest-degree lane is
      // done — ADDS's Achilles heel on hub-dominated graphs.
      for_each_lockstep_edge(
          ctx, graph(), rows, lane_count, [&](const LockstepStep& step) {
            const std::uint32_t active = step.count;
            ctx.alu(2, active);
            work_.relaxations += active;

            std::array<std::uint64_t, 32> relax_idx{};
            std::array<Distance, 32> relax_val{};
            for (std::uint32_t i = 0; i < active; ++i) {
              relax_idx[i] = step.dst[i];
              relax_val[i] = dist_u[step.owner[i]] + step.weight[i];
            }
            std::array<std::uint8_t, 32> improved{};
            ctx.atomic_min(
                dist_, std::span<const std::uint64_t>(relax_idx.data(), active),
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
            charge_push(
                ctx, std::span<const VertexId>(to_near.data(), to_near_count),
                /*to_near=*/true);
            charge_push(ctx,
                        std::span<const VertexId>(to_far.data(), to_far_count),
                        /*to_near=*/false);
          });
      kernel.commit(ctx);
      ++work_.iterations;
    }
    kernel.finish();
    // Round boundary (near pile drained): snapshot for checkpoint-resume.
    query.checkpoint_boundary(dist_, options_.checkpoint_interval);
  }

  result.sssp.distances = dist_.data();
  result.sssp.work = work_;
  return result;
}

}  // namespace rdbs::core

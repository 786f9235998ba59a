#include "core/legacy_gpu.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "common/macros.hpp"

namespace rdbs::core {

using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

namespace {
// Cells of Davidson's queue control buffer (atomically claimed cursors).
constexpr std::uint64_t kNearTailCell[1] = {0};
constexpr std::uint64_t kFarTailCell[1] = {1};
}

// ---------------------------------------------------------------------------
// Harish & Narayanan (2007)
// ---------------------------------------------------------------------------

HarishNarayanan::HarishNarayanan(gpusim::DeviceSpec device,
                                 const graph::Csr& csr,
                                 gpusim::SanitizeMode sanitize,
                                 const gpusim::FaultConfig& fault,
                                 const RetryPolicy& retry)
    : RecoverableEngine(EngineDevice(std::move(device), csr, sanitize, fault),
                        csr, retry) {
  const VertexId n = csr_.num_vertices();
  dist_ = sim().alloc<Distance>("cost", n, kDeviceWord);
  updating_dist_ = sim().alloc<Distance>("updating_cost", n, kDeviceWord);
  mask_ = sim().alloc<std::uint8_t>("mask", n, 1);
}

GpuRunResult HarishNarayanan::attempt(VertexId source,
                                      AttemptContext& query) {
  const VertexId n = csr_.num_vertices();
  const std::uint64_t warps = (n + 31) / 32;
  sssp::WorkStats work;

  // Initialization kernel: cost = updating_cost = inf, mask = 0; then the
  // source seeded by a one-thread kernel (exactly the 2007 structure).
  fill_kernel(device_, "init_arrays", n,
              Fill{dist_, graph::kInfiniteDistance},
              Fill{updating_dist_, graph::kInfiniteDistance},
              Fill{mask_, std::uint8_t{0}});
  seed_kernel(device_, source, Fill{dist_, Distance{0}},
              Fill{updating_dist_, Distance{0}},
              Fill{mask_, std::uint8_t{1}});

  bool changed = true;
  const std::uint64_t max_iterations = 4 * (std::uint64_t(n) + 8);
  std::uint64_t iterations = 0;
  while (changed) {
    if (sim().device_lost()) break;  // attempt is void; recovery takes over
    if (++iterations >= max_iterations) {
      // Corrupted distances can stall convergence; the poisoned attempt is
      // discarded by the retry driver. A clean-device runaway is a bug.
      RDBS_CHECK_MSG(query.poisoned(), "HN07 failed to converge");
      break;
    }
    ++work.iterations;

    // Kernel 1 (topology-driven): every vertex loads its mask; masked lanes
    // relax all out-edges into updating_cost via atomicMin.
    sim().label_next_launch("relax_scatter");
    sim().run_kernel(
        gpusim::Schedule::kStatic, warps, 8,
        [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
          const std::uint64_t begin = w * 32;
          const std::uint64_t end = std::min<std::uint64_t>(begin + 32, n);
          const auto lanes = static_cast<std::uint32_t>(end - begin);
          std::array<std::uint64_t, 32> idx{};
          for (std::uint32_t i = 0; i < lanes; ++i) idx[i] = begin + i;
          std::span<const std::uint64_t> is(idx.data(), lanes);
          std::array<std::uint8_t, 32> masks{};
          ctx.load(mask_, is, std::span<std::uint8_t>(masks.data(), lanes));

          std::array<std::uint32_t, 32> active_lane{};
          std::uint32_t active = 0;
          for (std::uint32_t i = 0; i < lanes; ++i) {
            if (masks[i]) active_lane[active++] = i;
          }
          if (active == 0) return;  // whole warp idle — but it was launched

          // Row bounds + own distance for the active lanes.
          std::array<std::uint64_t, 32> vact{};
          for (std::uint32_t i = 0; i < active; ++i) {
            vact[i] = begin + active_lane[i];
          }
          std::span<const std::uint64_t> va(vact.data(), active);
          const RowBounds rows = load_row_bounds(ctx, graph(), va);
          std::array<Distance, 32> du{};
          ctx.load(dist_, va, std::span<Distance>(du.data(), active));
          ctx.alu(2, active);

          for_each_lockstep_edge(
              ctx, graph(), rows, active, [&](const LockstepStep& step) {
                const std::uint32_t cnt = step.count;
                ctx.alu(2, cnt);
                work.relaxations += cnt;
                std::array<std::uint64_t, 32> tgt{};
                std::array<Distance, 32> val{};
                for (std::uint32_t i = 0; i < cnt; ++i) {
                  tgt[i] = step.dst[i];
                  val[i] = du[step.owner[i]] + step.weight[i];
                }
                std::array<std::uint8_t, 32> improved{};
                ctx.atomic_min(
                    updating_dist_,
                    std::span<const std::uint64_t>(tgt.data(), cnt),
                    std::span<const Distance>(val.data(), cnt),
                    std::span<std::uint8_t>(improved.data(), cnt));
                for (std::uint32_t i = 0; i < cnt; ++i) {
                  work.total_updates += improved[i];
                }
              });
        });

    // Kernel 2: commit improvements, rebuild the mask, resync the shadow.
    changed = false;
    sim().label_next_launch("commit_mask");
    sim().run_kernel(
        gpusim::Schedule::kStatic, warps, 8,
        [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
          const std::uint64_t begin = w * 32;
          const std::uint64_t end = std::min<std::uint64_t>(begin + 32, n);
          const auto lanes = static_cast<std::uint32_t>(end - begin);
          std::array<std::uint64_t, 32> idx{};
          for (std::uint32_t i = 0; i < lanes; ++i) idx[i] = begin + i;
          std::span<const std::uint64_t> is(idx.data(), lanes);
          std::array<Distance, 32> cost{};
          std::array<Distance, 32> updating{};
          ctx.load(dist_, is, std::span<Distance>(cost.data(), lanes));
          ctx.load(updating_dist_, is,
                   std::span<Distance>(updating.data(), lanes));
          ctx.alu(2, lanes);
          std::array<std::uint8_t, 32> new_mask{};
          for (std::uint32_t i = 0; i < lanes; ++i) {
            if (updating[i] < cost[i]) {
              cost[i] = updating[i];
              new_mask[i] = 1;
              changed = true;
            } else {
              updating[i] = cost[i];
              new_mask[i] = 0;
            }
          }
          ctx.store(dist_, is, std::span<const Distance>(cost.data(), lanes));
          ctx.store(updating_dist_, is,
                    std::span<const Distance>(updating.data(), lanes));
          ctx.store(mask_, is,
                    std::span<const std::uint8_t>(new_mask.data(), lanes));
        });
    sim().host_barrier();
  }

  GpuRunResult result;
  result.sssp.distances = dist_.data();
  result.sssp.work = work;
  return result;
}

// ---------------------------------------------------------------------------
// Davidson et al. (2014): Workfront Sweep + Near-Far
// ---------------------------------------------------------------------------

DavidsonNearFar::DavidsonNearFar(gpusim::DeviceSpec device,
                                 const graph::Csr& csr,
                                 DavidsonOptions options)
    : RecoverableEngine(EngineDevice(std::move(device), csr, options.sanitize,
                                     options.fault),
                        csr, options.retry),
      options_(options) {
  RDBS_CHECK(options_.delta > 0);
  const VertexId n = csr_.num_vertices();
  const EdgeIndex m = csr_.num_edges();
  gpusim::GpuSim& sim = this->sim();
  dist_ = sim.alloc<Distance>("dist", n, kDeviceWord);
  near_queue_ = sim.alloc<VertexId>("near", std::max<std::size_t>(n, 64),
                                    kDeviceWord);
  far_pile_ = sim.alloc<VertexId>("far", std::max<std::size_t>(2 * m + 64, 64),
                                  kDeviceWord);
  queue_ctrl_ = sim.alloc<std::uint32_t>("queue_ctrl", 2, kDeviceWord);
  sim.mark_initialized(queue_ctrl_);
  in_near_ = sim.alloc<std::uint8_t>("in_near", n, 1);
}

GpuRunResult DavidsonNearFar::attempt(VertexId source,
                                      AttemptContext& /*query*/) {
  const VertexId n = csr_.num_vertices();
  sssp::WorkStats work;
  std::fill(in_near_.data().begin(), in_near_.data().end(), 0);
  // Init kernel cost: one coalesced pass over dist.
  fill_kernel(device_, "init_distances", n,
              Fill{dist_, graph::kInfiniteDistance});
  // Host seed: dist[source] plus the first near-queue slot, modeled as H2D
  // uploads.
  dist_[source] = 0;
  sim().mark_initialized(dist_, source, 1);

  std::vector<VertexId> near{source};
  in_near_[source] = 1;
  near_queue_[0] = source;
  sim().mark_initialized(near_queue_, 0, 1);
  std::vector<VertexId> far;
  std::uint64_t near_tail = 1;
  std::uint64_t far_tail = 0;
  Distance threshold = options_.delta;

  // Warp-aggregated pile append (caller already appended `ids` to the host
  // mirror): one tail atomic on the control cell plus a volatile (st.cg)
  // store of the ids into the claimed ring slots.
  auto charge_push = [&](gpusim::WarpCtx& ctx, std::span<const VertexId> ids,
                         bool to_near) {
    const auto cnt = static_cast<std::uint32_t>(ids.size());
    if (cnt == 0) return;
    std::uint64_t& tail = to_near ? near_tail : far_tail;
    auto& buf = to_near ? near_queue_ : far_pile_;
    std::array<std::uint64_t, 32> slot{};
    for (std::uint32_t i = 0; i < cnt; ++i) {
      slot[i] = (tail + i) % buf.size();
      buf[slot[i]] = ids[i];
    }
    ctx.atomic_touch(queue_ctrl_,
                     std::span<const std::uint64_t>(
                         to_near ? kNearTailCell : kFarTailCell, 1));
    ctx.volatile_touch(buf, std::span<const std::uint64_t>(slot.data(), cnt),
                       /*is_store=*/true);
    tail += cnt;
  };

  while (!near.empty() || !far.empty()) {
    if (sim().device_lost()) break;  // attempt is void; recovery takes over
    if (near.empty()) {
      // Far split (synchronous kernel over the pile). The live entries
      // occupy the last far.size() pile slots (pushes and slots are in
      // lockstep through charge_push).
      Distance min_far = graph::kInfiniteDistance;
      const std::uint64_t pile_base = far_tail - far.size();
      sim().label_next_launch("far_split");
      gpusim::KernelScope split(sim(), gpusim::Schedule::kStatic, true);
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
          ctx.spin_wait(far_pile_, slot[i]);  // gsan: consumed slot must
                                              // have been published
        }
        ctx.volatile_touch(far_pile_,
                           std::span<const std::uint64_t>(slot.data(), cnt),
                           /*is_store=*/false);
        ctx.load(dist_, std::span<const std::uint64_t>(vidx.data(), cnt),
                 std::span<Distance>(dvals.data(), cnt));
        ctx.alu(2, cnt);
        for (std::uint32_t i = 0; i < cnt; ++i) {
          if (dvals[i] >= threshold) min_far = std::min(min_far, dvals[i]);
        }
        split.commit(ctx);
      }
      if (min_far == graph::kInfiniteDistance) {
        split.finish();
        break;
      }
      const Distance old_threshold = threshold;
      while (threshold <= min_far) threshold += options_.delta;
      std::vector<VertexId> still_far;
      for (std::size_t base = 0; base < far.size(); base += 32) {
        const auto cnt = static_cast<std::uint32_t>(
            std::min<std::size_t>(32, far.size() - base));
        auto ctx = split.make_warp();
        ctx.alu(2, cnt);
        std::array<VertexId, 32> promoted{};
        std::array<VertexId, 32> kept{};
        std::uint32_t promoted_count = 0;
        std::uint32_t kept_count = 0;
        for (std::uint32_t i = 0; i < cnt; ++i) {
          const VertexId v = far[base + i];
          const Distance d = dist_[v];
          if (d == graph::kInfiniteDistance || d < old_threshold) continue;
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
        charge_push(ctx,
                    std::span<const VertexId>(promoted.data(), promoted_count),
                    /*to_near=*/true);
        charge_push(ctx, std::span<const VertexId>(kept.data(), kept_count),
                    /*to_near=*/false);
        split.commit(ctx);
      }
      split.finish();
      sim().host_barrier();
      far.swap(still_far);
      continue;
    }

    // --- Workfront Sweep over the near frontier: flatten to edge chunks
    // (edge-balanced mapping: each warp handles 32 consecutive frontier
    // edges, never a whole vertex).
    ++work.iterations;
    std::vector<EdgeChunk> chunks;
    {
      // The flattening itself is a scan+compact on device; charge one pass
      // over the frontier (queue-slot reads + row-bound loads + prefix-sum
      // ALU). The frontier occupies the last near.size() queue slots.
      const std::uint64_t near_base = near_tail - near.size();
      sim().label_next_launch("workfront_setup");
      gpusim::KernelScope setup(sim(), gpusim::Schedule::kStatic, true);
      for (std::size_t base = 0; base < near.size(); base += 32) {
        const auto cnt = static_cast<std::uint32_t>(
            std::min<std::size_t>(32, near.size() - base));
        auto ctx = setup.make_warp();
        std::array<std::uint64_t, 32> vidx{};
        std::array<std::uint64_t, 32> slot{};
        for (std::uint32_t i = 0; i < cnt; ++i) {
          vidx[i] = near[base + i];
          slot[i] = (near_base + base + i) % near_queue_.size();
          ctx.spin_wait(near_queue_, slot[i]);  // gsan: consumed slot must
                                                // have been published
        }
        ctx.volatile_touch(near_queue_,
                           std::span<const std::uint64_t>(slot.data(), cnt),
                           /*is_store=*/false);
        const RowBounds rows = load_row_bounds(
            ctx, graph(), std::span<const std::uint64_t>(vidx.data(), cnt));
        ctx.alu(4, cnt);  // prefix-sum steps of the compact
        for (std::uint32_t i = 0; i < cnt; ++i) {
          const VertexId v = near[base + i];
          in_near_[v] = 0;
          append_edge_chunks(chunks, v, rows.begin[i], rows.end[i]);
        }
        setup.commit(ctx);
      }
      setup.finish();
    }
    near.clear();
    sim().host_barrier();

    sim().label_next_launch("workfront_sweep");
    gpusim::KernelScope sweep(sim(), gpusim::Schedule::kStatic, true);
    for (const EdgeChunk& chunk : chunks) {
      auto ctx = sweep.make_warp();
      const std::uint32_t cnt = chunk.size();
      const Distance du = ctx.load_one(dist_, chunk.vertex);
      const EdgeLanes edges = load_edge_chunk(ctx, graph(), chunk.begin, cnt);
      ctx.alu(2, cnt);
      work.relaxations += cnt;
      std::array<std::uint64_t, 32> tgt{};
      std::array<Distance, 32> val{};
      for (std::uint32_t i = 0; i < cnt; ++i) {
        tgt[i] = edges.dst[i];
        val[i] = du + edges.weight[i];
      }
      std::array<std::uint8_t, 32> improved{};
      ctx.atomic_min(dist_, std::span<const std::uint64_t>(tgt.data(), cnt),
                     std::span<const Distance>(val.data(), cnt),
                     std::span<std::uint8_t>(improved.data(), cnt));
      std::array<VertexId, 32> to_near{};
      std::array<VertexId, 32> to_far{};
      std::uint32_t to_near_count = 0;
      std::uint32_t to_far_count = 0;
      for (std::uint32_t i = 0; i < cnt; ++i) {
        if (!improved[i]) continue;
        ++work.total_updates;
        const auto v = static_cast<VertexId>(tgt[i]);
        if (val[i] < threshold) {
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
      charge_push(ctx, std::span<const VertexId>(to_near.data(), to_near_count),
                  /*to_near=*/true);
      charge_push(ctx, std::span<const VertexId>(to_far.data(), to_far_count),
                  /*to_near=*/false);
      sweep.commit(ctx);
    }
    sweep.finish();
    sim().host_barrier();
  }

  GpuRunResult result;
  result.sssp.distances = dist_.data();
  result.sssp.work = work;
  return result;
}

}  // namespace rdbs::core

#include "core/sep_hybrid.hpp"

#include <algorithm>
#include <array>
#include <tuple>
#include <vector>

#include "common/macros.hpp"
#include "core/recovery.hpp"

namespace rdbs::core {

using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

namespace {
// Cursor cells of the queue control buffer.
constexpr std::uint64_t kTailCell[1] = {0};
constexpr std::uint64_t kHeadCell[1] = {1};
}

SepHybrid::SepHybrid(gpusim::DeviceSpec device, const graph::Csr& csr,
                     SepHybridOptions options)
    : device_(std::move(device), csr, options.sanitize, options.fault),
      csr_(csr),
      options_(options) {
  const VertexId n = csr_.num_vertices();
  const EdgeIndex m = csr_.num_edges();
  gpusim::GpuSim& sim = device_.sim();
  dist_ = sim.alloc<Distance>("dist", n, kDeviceWord);
  queue_ = sim.alloc<VertexId>("queue", std::max<std::size_t>(n, 64),
                               kDeviceWord);
  queue_ctrl_ = sim.alloc<std::uint32_t>("queue_ctrl", 2, kDeviceWord);
  sim.mark_initialized(queue_ctrl_);
  in_queue_ = sim.alloc<std::uint8_t>("in_queue", n, 1);
  ctx_.attach(device_);

  // Symmetry detection: the weighted edge multiset must equal its own
  // reverse. Sort-and-compare keeps it O(m log m) with no hashing.
  {
    std::vector<std::tuple<VertexId, VertexId, Weight>> fwd, rev;
    fwd.reserve(m);
    rev.reserve(m);
    for (VertexId u = 0; u < n; ++u) {
      const auto dsts = csr_.neighbors(u);
      const auto ws = csr_.edge_weights(u);
      for (std::size_t i = 0; i < dsts.size(); ++i) {
        fwd.emplace_back(u, dsts[i], ws[i]);
        rev.emplace_back(dsts[i], u, ws[i]);
      }
    }
    std::sort(fwd.begin(), fwd.end());
    std::sort(rev.begin(), rev.end());
    csr_symmetric_ = fwd == rev;
  }
}

SepMode SepHybrid::choose_mode(std::uint64_t frontier_vertices,
                               std::uint64_t frontier_edges) const {
  if (csr_symmetric_ &&
      frontier_edges >
          static_cast<std::uint64_t>(options_.pull_edge_fraction *
                                     static_cast<double>(csr_.num_edges()))) {
    return SepMode::kSyncPull;
  }
  if (frontier_vertices <= options_.async_frontier_limit) {
    return SepMode::kAsyncPush;
  }
  return SepMode::kSyncPush;
}

SepRunResult SepHybrid::run(VertexId source) {
  SepRunResult result;
  result.gpu = run_with_recovery(ctx_, options_.retry, csr_, source,
                                 [&](AttemptContext& query) {
                                   result.rounds.clear();
                                   return attempt(source, query,
                                                  result.rounds);
                                 });
  // After a CPU fallback (or a typed failure) the round log would describe
  // a discarded device attempt, not the distances returned — drop it.
  if (result.gpu.recovery.cpu_fallbacks > 0 || !result.gpu.ok) {
    result.rounds.clear();
  }
  return result;
}

GpuRunResult SepHybrid::attempt(VertexId source, AttemptContext& query,
                                std::vector<SepRound>& round_log) {
  gpusim::GpuSim& sim = device_.sim();
  const VertexId n = csr_.num_vertices();
  sssp::WorkStats work;

  fill_kernel(device_, "init_distances", n,
              Fill{dist_, graph::kInfiniteDistance},
              Fill{in_queue_, std::uint8_t{0}});
  seed_kernel(device_, source, Fill{dist_, Distance{0}});

  std::deque<VertexId> frontier{source};
  in_queue_[source] = 1;
  // Host-side seed of the device work queue (H2D upload).
  queue_[0] = source;
  sim.mark_initialized(queue_, 0, 1);
  queue_tail_ = 1;
  queue_head_ = 0;

  // Relax the out-edges of one popped vertex batch, thread-per-vertex.
  auto push_warp = [&](gpusim::WarpCtx& ctx,
                       std::span<const VertexId> lanes) {
    const auto lane_count = static_cast<std::uint32_t>(lanes.size());
    std::array<std::uint64_t, 32> vidx{};
    for (std::uint32_t i = 0; i < lane_count; ++i) {
      vidx[i] = lanes[i];
      in_queue_[lanes[i]] = 0;
    }
    std::span<const std::uint64_t> vs(vidx.data(), lane_count);
    {
      // Pop: bump the shared head cursor, then read the claimed ring
      // slots (ld.cg — concurrent producers write them with st.cg).
      ctx.atomic_touch(queue_ctrl_,
                       std::span<const std::uint64_t>(kHeadCell, 1));
      std::array<std::uint64_t, 32> slot{};
      for (std::uint32_t i = 0; i < lane_count; ++i) {
        slot[i] = (queue_head_ + i) % queue_.size();
      }
      queue_head_ += lane_count;
      ctx.volatile_touch(queue_,
                         std::span<const std::uint64_t>(slot.data(), lane_count),
                         /*is_store=*/false);
      // Clear the membership flags with atomicExch: concurrent relaxers
      // set them with atomics, so a plain byte store would race.
      ctx.atomic_touch(in_queue_, vs);
    }
    std::array<Distance, 32> du{};
    ctx.load(dist_, vs, std::span<Distance>(du.data(), lane_count));
    const RowBounds rows = load_row_bounds(ctx, device_.graph(), vs);
    ctx.alu(2, lane_count);
    for_each_lockstep_edge(
        ctx, device_.graph(), rows, lane_count,
        [&](const LockstepStep& step) {
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
          ctx.atomic_min(dist_,
                         std::span<const std::uint64_t>(tgt.data(), cnt),
                         std::span<const Distance>(val.data(), cnt),
                         std::span<std::uint8_t>(improved.data(), cnt));
          std::uint32_t enq = 0;
          std::array<std::uint64_t, 32> flag_idx{};
          std::array<std::uint64_t, 32> slot{};
          for (std::uint32_t i = 0; i < cnt; ++i) {
            if (!improved[i]) continue;
            ++work.total_updates;
            const auto v = static_cast<VertexId>(tgt[i]);
            if (!in_queue_[v]) {
              in_queue_[v] = 1;
              frontier.push_back(v);
              flag_idx[enq] = v;
              slot[enq] = queue_tail_ % queue_.size();
              queue_[slot[enq]] = v;
              ++queue_tail_;
              ++enq;
            }
          }
          if (enq > 0) {
            // Push: atomicAdd on the shared tail cursor reserves slots, set
            // the membership flags atomically, then st.cg the vertex ids.
            ctx.atomic_touch(queue_ctrl_,
                             std::span<const std::uint64_t>(kTailCell, 1));
            ctx.atomic_touch(
                in_queue_,
                std::span<const std::uint64_t>(flag_idx.data(), enq));
            ctx.volatile_touch(
                queue_, std::span<const std::uint64_t>(slot.data(), enq),
                /*is_store=*/true);
          }
        });
  };

  const std::uint64_t max_rounds = 8 * (std::uint64_t(n) + 16);
  std::uint64_t rounds = 0;
  while (!frontier.empty()) {
    if (sim.device_lost()) break;  // attempt is void; recovery takes over
    if (++rounds >= max_rounds) {
      // Corrupted distances can legitimately stall convergence; the
      // poisoned attempt is discarded by the retry driver. A genuine
      // runaway on a clean device is still a hard bug.
      RDBS_CHECK_MSG(query.poisoned(), "SEP hybrid failed to converge");
      break;
    }
    // Round bookkeeping: size + out-edge volume of the entering frontier.
    std::uint64_t frontier_edges = 0;
    for (const VertexId v : frontier) frontier_edges += csr_.degree(v);
    const SepMode mode = choose_mode(frontier.size(), frontier_edges);

    SepRound round;
    round.mode = mode;
    round.frontier = frontier.size();
    round.frontier_edges = frontier_edges;
    const double ms_before = sim.elapsed_ms();
    ++work.iterations;

    if (mode == SepMode::kSyncPull) {
      // Topology-driven pull: one full scan; every vertex gathers over its
      // in-edges (symmetric CSR: same as out-edges) — no atomics. The
      // entire frontier is consumed; improved vertices form the next one.
      for (const VertexId v : frontier) in_queue_[v] = 0;
      frontier.clear();
      // The scan consumes the whole pending queue window.
      queue_head_ = queue_tail_;
      const std::uint64_t warps = (n + 31) / 32;
      sim.label_next_launch("pull_sweep");
      sim.run_kernel(
          gpusim::Schedule::kStatic, warps, 8,
          [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
            const std::uint64_t begin = w * 32;
            const std::uint64_t end = std::min<std::uint64_t>(begin + 32, n);
            const auto lanes = static_cast<std::uint32_t>(end - begin);
            std::array<std::uint64_t, 32> idx{};
            for (std::uint32_t i = 0; i < lanes; ++i) idx[i] = begin + i;
            std::span<const std::uint64_t> is(idx.data(), lanes);
            std::array<Distance, 32> dv{};
            ctx.load(dist_, is, std::span<Distance>(dv.data(), lanes));
            const RowBounds rows =
                load_row_bounds(ctx, device_.graph(), is);
            ctx.alu(2, lanes);
            std::array<Distance, 32> best = dv;
            for_each_lockstep_edge(
                ctx, device_.graph(), rows, lanes,
                [&](const LockstepStep& step) {
                  const std::uint32_t cnt = step.count;
                  // Gather the in-neighbors' current distances.
                  std::array<std::uint64_t, 32> nidx{};
                  for (std::uint32_t i = 0; i < cnt; ++i) nidx[i] = step.dst[i];
                  std::array<Distance, 32> dn{};
                  ctx.load(dist_,
                           std::span<const std::uint64_t>(nidx.data(), cnt),
                           std::span<Distance>(dn.data(), cnt));
                  ctx.alu(2, cnt);
                  work.relaxations += cnt;
                  for (std::uint32_t i = 0; i < cnt; ++i) {
                    best[step.owner[i]] =
                        std::min(best[step.owner[i]], dn[i] + step.weight[i]);
                  }
                });
            // Plain (non-atomic) store of improved distances + frontier
            // membership flags.
            std::array<std::uint64_t, 32> sidx{};
            std::array<Distance, 32> sval{};
            std::uint32_t scnt = 0;
            for (std::uint32_t i = 0; i < lanes; ++i) {
              if (best[i] < dv[i]) {
                sidx[scnt] = begin + i;
                sval[scnt] = best[i];
                ++scnt;
                ++work.total_updates;
                const auto v = static_cast<VertexId>(begin + i);
                if (!in_queue_[v]) {
                  in_queue_[v] = 1;
                  frontier.push_back(v);
                }
              }
            }
            if (scnt > 0) {
              // st.cg write-back: pull writes only the lane's own vertex,
              // so no atomic is needed (the mode's key saving) — but other
              // warps gather these cells concurrently, so the store must
              // bypass L1 (a plain cached store would be a data race).
              ctx.volatile_store(dist_,
                                 std::span<const std::uint64_t>(sidx.data(),
                                                                scnt),
                                 std::span<const Distance>(sval.data(), scnt));
            }
          });
      sim.host_barrier();
      // The sweep's improved vertices become the next frontier; mirror the
      // compaction kernel's output into the device queue window.
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        const std::uint64_t slot = (queue_tail_ + i) % queue_.size();
        queue_[slot] = frontier[i];
        sim.mark_initialized(queue_, slot, 1);
      }
      queue_tail_ += frontier.size();
    } else if (mode == SepMode::kAsyncPush) {
      // Async drains continuously, but SEP re-evaluates its decision when
      // the signal changes: once the frontier outgrows the async regime,
      // the persistent kernel retires and the next round re-decides.
      sim.label_next_launch("async_push");
      gpusim::KernelScope kernel(sim, gpusim::Schedule::kDynamic, true);
      while (!frontier.empty() &&
             frontier.size() <= 4 * options_.async_frontier_limit) {
        std::array<VertexId, 32> lanes{};
        std::uint32_t cnt = 0;
        while (!frontier.empty() && cnt < 32) {
          lanes[cnt++] = frontier.front();
          frontier.pop_front();
        }
        auto ctx = kernel.make_warp();
        push_warp(ctx, std::span<const VertexId>(lanes.data(), cnt));
        kernel.commit(ctx);
      }
      kernel.finish();
    } else {  // kSyncPush
      std::vector<VertexId> sweep(frontier.begin(), frontier.end());
      frontier.clear();
      sim.label_next_launch("sync_push");
      gpusim::KernelScope kernel(sim, gpusim::Schedule::kStatic, true);
      for (std::size_t base = 0; base < sweep.size(); base += 32) {
        const auto cnt = static_cast<std::uint32_t>(
            std::min<std::size_t>(32, sweep.size() - base));
        auto ctx = kernel.make_warp();
        push_warp(ctx,
                  std::span<const VertexId>(sweep.data() + base, cnt));
        kernel.commit(ctx);
      }
      kernel.finish();
      sim.host_barrier();
    }

    round.ms = sim.elapsed_ms() - ms_before;
    round_log.push_back(round);
  }

  GpuRunResult gpu;
  gpu.sssp.distances = dist_.data();
  gpu.sssp.work = work;
  return gpu;
}

}  // namespace rdbs::core

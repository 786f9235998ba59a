#include "core/multi_gpu.hpp"

#include <algorithm>
#include <array>
#include <deque>

#include "common/macros.hpp"
#include "core/device_graph.hpp"

namespace rdbs::core {

using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

namespace {
// One remote relaxation message: packed (vertex id, fp32 distance).
constexpr double kMessageBytes = 8.0;
// Cursor cells of the per-shard queue control buffer.
constexpr std::uint64_t kTailCell[1] = {0};
constexpr std::uint64_t kOutboxCell[1] = {1};
}  // namespace

// Per-device state: its own device record (simulator plus the CSR rows of
// the owned vertices) and the owned dist shard.
struct MultiGpuDeltaStepping::Shard {
  Shard(gpusim::DeviceSpec spec, const graph::Csr& csr, VertexId begin,
        VertexId end, gpusim::SanitizeMode sanitize,
        const gpusim::FaultConfig& fault)
      : device(std::move(spec), csr, begin, end, sanitize, fault),
        first(begin),
        last(end) {}

  gpusim::GpuSim& sim() { return device.sim(); }
  const DeviceCsrBuffers& graph() const { return device.graph(); }

  EngineDevice device;
  VertexId first = 0, last = 0;  // owned vertex range [first, last)

  gpusim::Buffer<Distance> dist;          // owned shard
  gpusim::Buffer<VertexId> queue;
  // [0]=local queue tail, [1]=outbox (remote message) cursor.
  gpusim::Buffer<std::uint32_t> queue_ctrl;
  gpusim::Buffer<std::uint8_t> in_queue;

  // A frontier entry remembers which device queue slot published it, so the
  // consuming pop can assert the publish landed (gsan no-progress check).
  // kNoSlot marks host-materialized entries (distance-gap refill) that never
  // pass through the device queue.
  static constexpr std::uint64_t kNoSlot = ~0ull;
  struct QueueEntry {
    VertexId v = 0;
    std::uint64_t slot = kNoSlot;
  };

  std::deque<QueueEntry> frontier;        // local ids of queued vertices
  std::uint64_t queue_tail = 0;           // host mirror of queue_ctrl[0]
  double busy_ms = 0;

  // Push `lv` into the device work queue: atomicAdd on the tail cursor
  // reserves the slot, then the id is written with st.cg (the slot may be
  // consumed concurrently by another warp of a later launch's pop).
  void charge_push(gpusim::WarpCtx& ctx, VertexId lv) {
    ctx.atomic_touch(queue_ctrl, std::span<const std::uint64_t>(kTailCell, 1));
    const std::uint64_t slot[1] = {queue_tail % queue.size()};
    queue[slot[0]] = lv;
    ++queue_tail;
    frontier.push_back({lv, slot[0]});
    ctx.volatile_touch(queue, std::span<const std::uint64_t>(slot, 1),
                       /*is_store=*/true);
  }

  bool owns(VertexId v) const { return v >= first && v < last; }
};

MultiGpuDeltaStepping::MultiGpuDeltaStepping(gpusim::DeviceSpec device_template,
                                             const graph::Csr& csr,
                                             MultiGpuOptions options)
    : csr_(csr), options_(options) {
  RDBS_CHECK(options_.num_devices >= 1);
  RDBS_CHECK(options_.delta0 > 0);
  const VertexId n = csr_.num_vertices();
  shard_size_ = (n + static_cast<VertexId>(options_.num_devices) - 1) /
                static_cast<VertexId>(options_.num_devices);
  RDBS_CHECK(shard_size_ > 0);

  for (int d = 0; d < options_.num_devices; ++d) {
    // Independent per-device fault plan, still fully deterministic: derive
    // the shard seed from the configured seed and the device index.
    gpusim::FaultConfig shard_fault = options_.fault;
    shard_fault.seed ^=
        0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(d + 1);
    // With more devices than shard-sized slices (e.g. 4 devices, 5
    // vertices) the trailing shards are empty: [n, n).
    const VertexId first =
        std::min<VertexId>(n, static_cast<VertexId>(d) * shard_size_);
    const VertexId last = std::min<VertexId>(n, first + shard_size_);
    const VertexId local_n = last - first;
    // Uploads the owned rows (uncosted, as elsewhere).
    auto shard = std::make_unique<Shard>(device_template, csr_, first, last,
                                         options_.sanitize, shard_fault);
    shard->dist = shard->sim().alloc<Distance>(
        "dist", std::max<VertexId>(local_n, 1), kDeviceWord);
    shard->queue = shard->sim().alloc<VertexId>(
        "queue", std::max<VertexId>(local_n, 64), kDeviceWord);
    shard->queue_ctrl =
        shard->sim().alloc<std::uint32_t>("queue_ctrl", 2, kDeviceWord);
    shard->sim().mark_initialized(shard->queue_ctrl);
    shard->in_queue = shard->sim().alloc<std::uint8_t>(
        "in_queue", std::max<VertexId>(local_n, 1), 1);
    ctx_.attach_shard(shard->device);
    shards_.push_back(std::move(shard));
  }
}

MultiGpuDeltaStepping::~MultiGpuDeltaStepping() = default;

bool MultiGpuDeltaStepping::any_device_lost() const {
  for (const auto& shard : shards_) {
    if (shard->sim().device_lost()) return true;
  }
  return false;
}

MultiGpuRunResult MultiGpuDeltaStepping::run(VertexId source) {
  MultiGpuRunResult result;
  result.gpu = run_with_recovery(
      ctx_, options_.retry, csr_, source,
      [&](AttemptContext& query) { return attempt(source, query, result); });
  if (result.gpu.recovery.cpu_fallbacks > 0 || !result.gpu.ok) {
    result.messages = 0;
    result.exchange_rounds = 0;
    result.per_device_busy_ms.clear();
  }
  result.compute_ms = result.gpu.device_ms - result.exchange_ms;
  return result;
}

GpuRunResult MultiGpuDeltaStepping::attempt(VertexId source,
                                            AttemptContext& query,
                                            MultiGpuRunResult& out) {
  GpuRunResult result;
  double compute_ms = 0;
  double exchange_ms = 0;
  out.messages = 0;
  out.exchange_rounds = 0;
  out.per_device_busy_ms.clear();
  const Weight delta = options_.delta0;

  for (auto& shard : shards_) {
    shard->frontier.clear();
    shard->queue_tail = 0;
    shard->busy_ms = 0;
    std::fill(shard->in_queue.data().begin(), shard->in_queue.data().end(),
              0);
    // Init kernel per device (parallel across devices: makespan takes max).
    const VertexId local_n = shard->last - shard->first;
    if (local_n == 0) continue;
    fill_kernel(shard->device, "init_distances", local_n,
                Fill{shard->dist, graph::kInfiniteDistance});
  }
  {
    double init_ms = 0;
    for (auto& shard : shards_) {
      init_ms = std::max(init_ms, shard->sim().elapsed_ms());
      shard->sim().reset_time();
    }
    compute_ms += init_ms;
  }

  Shard& source_shard = *shards_[static_cast<std::size_t>(owner_of(source))];
  source_shard.dist[source - source_shard.first] = 0;
  source_shard.frontier.push_back({source - source_shard.first, 0});
  source_shard.in_queue[source - source_shard.first] = 1;
  // Host-side seed of the owner's device queue (H2D upload).
  source_shard.queue[0] = source - source_shard.first;
  source_shard.sim().mark_initialized(source_shard.queue, 0, 1);
  source_shard.sim().mark_initialized(source_shard.dist,
                                    source - source_shard.first, 1);
  source_shard.queue_tail = 1;

  auto dist_of = [&](VertexId v) -> Distance& {
    Shard& shard = *shards_[static_cast<std::size_t>(owner_of(v))];
    return shard.dist[v - shard.first];
  };

  Weight lo = 0;
  Weight hi = delta;
  const std::uint64_t max_buckets = 16 * (csr_.num_vertices() + 64);
  std::uint64_t bucket_count = 0;

  // Messages staged for the next exchange: per destination device.
  std::vector<std::vector<std::pair<VertexId, Distance>>> outbox(
      shards_.size());

  auto run_exchange = [&]() {
    // Coalesce per destination: several improvements to the same remote
    // vertex within a round collapse to the minimum (the standard
    // message-reduction optimization; sorting cost is on the sender and
    // negligible next to the wire time it saves).
    for (auto& box : outbox) {
      std::sort(box.begin(), box.end());
      box.erase(std::unique(box.begin(), box.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                box.end());
    }
    std::uint64_t batch = 0;
    for (auto& box : outbox) batch += box.size();
    if (batch == 0) return false;
    ++out.exchange_rounds;
    out.messages += batch;
    // All-to-all: pairs transfer concurrently; the bottleneck is the
    // busiest link (approximated by the largest per-destination volume),
    // plus a fixed round latency.
    std::uint64_t busiest = 0;
    for (auto& box : outbox) {
      busiest = std::max<std::uint64_t>(busiest, box.size());
    }
    exchange_ms +=
        options_.interconnect.latency_us * 1e-3 +
        static_cast<double>(busiest) * kMessageBytes /
            (options_.interconnect.bandwidth_gbps * 1e6);
    // Owners apply the messages (an atomicMin kernel per device; charge on
    // the owning device, then clear the boxes).
    for (std::size_t d = 0; d < shards_.size(); ++d) {
      Shard& shard = *shards_[d];
      auto& box = outbox[d];
      if (box.empty()) continue;
      shard.sim().label_next_launch("apply_messages");
      gpusim::KernelScope apply(shard.sim(), gpusim::Schedule::kStatic, true);
      for (std::size_t base = 0; base < box.size(); base += 32) {
        const auto cnt = static_cast<std::uint32_t>(
            std::min<std::size_t>(32, box.size() - base));
        auto ctx = apply.make_warp();
        std::array<std::uint64_t, 32> idx{};
        std::array<Distance, 32> val{};
        for (std::uint32_t i = 0; i < cnt; ++i) {
          idx[i] = box[base + i].first - shard.first;
          val[i] = box[base + i].second;
        }
        std::array<std::uint8_t, 32> improved{};
        ctx.atomic_min(shard.dist,
                       std::span<const std::uint64_t>(idx.data(), cnt),
                       std::span<const Distance>(val.data(), cnt),
                       std::span<std::uint8_t>(improved.data(), cnt));
        for (std::uint32_t i = 0; i < cnt; ++i) {
          if (!improved[i]) continue;
          const auto local = static_cast<VertexId>(idx[i]);
          if (val[i] < hi && !shard.in_queue[local]) {
            shard.in_queue[local] = 1;
            shard.charge_push(ctx, local);
          }
        }
        apply.commit(ctx);
      }
      apply.finish();
    }
    for (auto& box : outbox) box.clear();
    return true;
  };

  // Relaxes the row of local vertex `lv` on shard `shard` against the
  // window predicate; local improvements are queued, remote targets become
  // messages.
  auto relax_range = [&](Shard& shard, gpusim::WarpCtx& ctx, VertexId lv,
                         bool light_only, bool heavy_only) {
    const EdgeIndex eb = shard.graph().row_offsets[lv];
    const EdgeIndex ee = shard.graph().row_offsets[lv + 1];
    const Distance du = ctx.load_one(shard.dist, lv);
    for (EdgeIndex base = eb; base < ee; base += 32) {
      const auto cnt =
          static_cast<std::uint32_t>(std::min<EdgeIndex>(32, ee - base));
      const EdgeLanes edges = load_edge_chunk(ctx, shard.graph(), base, cnt);
      ctx.alu(3, cnt);  // window predicate + add + compare
      for (std::uint32_t i = 0; i < cnt; ++i) {
        const Weight w = edges.weight[i];
        if (light_only && w >= delta) continue;
        if (heavy_only && w < delta) continue;
        const VertexId target = edges.dst[i];
        const Distance through = du + w;
        if (shard.owns(target)) {
          const VertexId local = target - shard.first;
          if (ctx.atomic_min_one(shard.dist, local, through)) {
            if (through < hi && !shard.in_queue[local]) {
              shard.in_queue[local] = 1;
              shard.charge_push(ctx, local);
            }
          }
        } else {
          // Remote: stage a message (atomicAdd on the outbox cursor; the
          // message payload buffer itself is not modeled).
          if (through < dist_of(target)) {
            outbox[static_cast<std::size_t>(owner_of(target))].emplace_back(
                target, through);
            ctx.atomic_touch(shard.queue_ctrl,
                             std::span<const std::uint64_t>(kOutboxCell, 1));
          }
        }
      }
    }
  };

  while (true) {
    if (any_device_lost()) break;  // attempt is void; recovery takes over
    if (++bucket_count >= max_buckets) {
      // Corrupted distances can stall the bucket walk; the poisoned
      // attempt is discarded by the retry driver. A clean-device runaway
      // is still a hard bug.
      RDBS_CHECK_MSG(query.poisoned(), "multi-GPU bucket loop runaway");
      break;
    }

    // --- Phase 1 (bucket-synchronous inner rounds) ------------------------
    bool any_work = false;
    for (auto& shard : shards_) any_work |= !shard->frontier.empty();
    while (any_work) {
      if (any_device_lost()) break;
      double round_ms = 0;
      for (auto& shard : shards_) {
        if (shard->frontier.empty()) continue;
        shard->sim().label_next_launch("phase1_light");
        gpusim::KernelScope kernel(shard->sim(), gpusim::Schedule::kDynamic,
                                   true);
        while (!shard->frontier.empty()) {
          const Shard::QueueEntry entry = shard->frontier.front();
          shard->frontier.pop_front();
          const VertexId lv = entry.v;
          shard->in_queue[lv] = 0;
          const Distance d = shard->dist[lv];
          if (d < lo || d >= hi) continue;  // stale
          auto ctx = kernel.make_warp();
          if (entry.slot != Shard::kNoSlot) {
            // Pop contract: the enqueuer's st.cg publish must be visible.
            ctx.spin_wait(shard->queue, entry.slot);
          }
          relax_range(*shard, ctx, lv, /*light_only=*/true,
                      /*heavy_only=*/false);
          kernel.commit(ctx);
        }
        kernel.finish();
        round_ms = std::max(round_ms, shard->sim().elapsed_ms());
        shard->busy_ms += shard->sim().elapsed_ms();
        shard->sim().reset_time();
      }
      compute_ms += round_ms;
      const bool exchanged = run_exchange();
      any_work = false;
      for (auto& shard : shards_) any_work |= !shard->frontier.empty();
      if (!exchanged && !any_work) break;
    }

    // --- Phase 2&3 per device: heavy edges + next bucket collection -------
    double scan_ms = 0;
    std::uint64_t remaining = 0;
    Distance min_unsettled = graph::kInfiniteDistance;
    for (auto& shard : shards_) {
      const VertexId local_n = shard->last - shard->first;
      if (local_n == 0) continue;
      shard->sim().label_next_launch("phase2_heavy");
      gpusim::KernelScope scan(shard->sim(), gpusim::Schedule::kStatic, true);
      for (VertexId base = 0; base < local_n; base += 32) {
        const auto cnt =
            static_cast<std::uint32_t>(std::min<VertexId>(32, local_n - base));
        auto ctx = scan.make_warp();
        std::array<std::uint64_t, 32> idx{};
        std::array<Distance, 32> dvals{};
        for (std::uint32_t i = 0; i < cnt; ++i) idx[i] = base + i;
        ctx.load(shard->dist, std::span<const std::uint64_t>(idx.data(), cnt),
                 std::span<Distance>(dvals.data(), cnt));
        ctx.alu(3, cnt);
        for (std::uint32_t i = 0; i < cnt; ++i) {
          const VertexId lv = base + i;
          const Distance d = shard->dist[lv];
          if (d >= lo && d < hi) {
            relax_range(*shard, ctx, lv, /*light_only=*/false,
                        /*heavy_only=*/true);
          }
        }
        scan.commit(ctx);
      }
      scan.finish();
    }
    // Heavy relaxations may have produced remote messages for the next
    // bucket; exchange them before collection.
    run_exchange();

    for (auto& shard : shards_) {
      const VertexId local_n = shard->last - shard->first;
      if (local_n == 0) continue;
      shard->sim().label_next_launch("collect_bucket");
      gpusim::KernelScope collect(shard->sim(), gpusim::Schedule::kStatic,
                                  true);
      for (VertexId base = 0; base < local_n; base += 32) {
        const auto cnt =
            static_cast<std::uint32_t>(std::min<VertexId>(32, local_n - base));
        auto ctx = collect.make_warp();
        std::array<std::uint64_t, 32> idx{};
        std::array<Distance, 32> dvals{};
        for (std::uint32_t i = 0; i < cnt; ++i) idx[i] = base + i;
        ctx.load(shard->dist, std::span<const std::uint64_t>(idx.data(), cnt),
                 std::span<Distance>(dvals.data(), cnt));
        ctx.alu(3, cnt);
        for (std::uint32_t i = 0; i < cnt; ++i) {
          const VertexId lv = base + i;
          const Distance d = shard->dist[lv];
          if (d == graph::kInfiniteDistance) continue;
          if (d >= hi) {
            ++remaining;
            min_unsettled = std::min(min_unsettled, d);
            if (d < hi + delta && !shard->in_queue[lv]) {
              shard->in_queue[lv] = 1;
              shard->charge_push(ctx, lv);
            }
          }
        }
        collect.commit(ctx);
      }
      collect.finish();
      scan_ms = std::max(scan_ms, shard->sim().elapsed_ms());
      shard->busy_ms += shard->sim().elapsed_ms();
      shard->sim().reset_time();
    }
    compute_ms += scan_ms;

    bool have_frontier = false;
    for (auto& shard : shards_) have_frontier |= !shard->frontier.empty();
    if (!have_frontier) {
      if (remaining == 0) break;
      // Jump the distance gap.
      lo = min_unsettled;
      hi = lo + delta;
      for (auto& shard : shards_) {
        const VertexId local_n = shard->last - shard->first;
        for (VertexId lv = 0; lv < local_n; ++lv) {
          const Distance d = shard->dist[lv];
          if (d != graph::kInfiniteDistance && d >= lo && d < hi &&
              !shard->in_queue[lv]) {
            shard->in_queue[lv] = 1;
            // Host-side refill: no device queue slot backs this entry.
            shard->frontier.push_back({lv, Shard::kNoSlot});
          }
        }
      }
      continue;
    }
    lo = hi;
    hi = lo + delta;
  }

  // Assemble the global distance array.
  result.sssp.distances.resize(csr_.num_vertices());
  for (const auto& shard : shards_) {
    for (VertexId lv = 0; lv < shard->last - shard->first; ++lv) {
      result.sssp.distances[shard->first + lv] = shard->dist[lv];
    }
  }
  result.device_ms = compute_ms + exchange_ms;
  out.exchange_ms += exchange_ms;
  for (const auto& shard : shards_) {
    out.per_device_busy_ms.push_back(shard->busy_ms);
  }
  return result;
}

}  // namespace rdbs::core

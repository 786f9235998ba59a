// QueryBatch and gpusim stream semantics.
//
// The load-bearing property is at the top: a batch of K sources must be
// BIT-IDENTICAL to K sequential single-query runs, for every stream
// count — concurrent streams repartition simulated time, never
// functional state. The gpusim-level tests below pin the stream model
// itself: overlap shrinks elapsed time, the concurrent-kernel cap
// serializes and records queue wait, and a single-stream user sees exactly
// the pre-stream accounting.
#include <gtest/gtest.h>

#include <vector>

#include "core/query_batch.hpp"
#include "core/rdbs.hpp"
#include "gpusim/device.hpp"
#include "gpusim/sim.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace rdbs {
namespace {

using graph::Csr;
using graph::VertexId;

Csr batch_test_graph() {
  return test::random_powerlaw_graph(400, 3000, /*seed=*/77);
}

std::vector<VertexId> batch_test_sources() { return {0, 17, 113, 256, 399}; }

// --- batch determinism ------------------------------------------------------

TEST(QueryBatch, BatchBitIdenticalToSequentialForEveryStreamCount) {
  const Csr csr = batch_test_graph();
  const std::vector<VertexId> sources = batch_test_sources();

  core::GpuSsspOptions gpu;
  gpu.delta0 = 150.0;

  // Sequential reference: fresh solver per config is not even needed —
  // one solver, queries back-to-back, is the documented equivalence.
  std::vector<std::vector<graph::Distance>> reference;
  {
    core::RdbsSolver solver(csr, gpusim::test_device(), gpu);
    for (const VertexId s : sources) {
      reference.push_back(solver.solve(s).sssp.distances);
    }
  }
  // And it matches Dijkstra (anchors the whole test).
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(reference[i], sssp::dijkstra(csr, sources[i]).distances);
  }

  for (const int streams : {1, 4}) {
    core::QueryBatchOptions options;
    options.streams = streams;
    options.gpu = gpu;
    core::QueryBatch batch(csr, gpusim::test_device(), options);
    const core::BatchResult result = batch.run(sources);
    ASSERT_EQ(result.queries.size(), sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(result.queries[i].sssp.distances, reference[i])
          << "streams=" << streams << " query " << i << " (source "
          << sources[i] << ")";
    }
  }
}

TEST(QueryBatch, RepeatedRunsOnPooledEnginesStayIdentical) {
  const Csr csr = batch_test_graph();
  const std::vector<VertexId> sources = batch_test_sources();
  core::QueryBatchOptions options;
  options.streams = 2;
  core::QueryBatch batch(csr, gpusim::test_device(), options);

  const core::BatchResult first = batch.run(sources);
  const core::BatchResult second = batch.run(sources);
  ASSERT_EQ(first.queries.size(), second.queries.size());
  for (std::size_t i = 0; i < first.queries.size(); ++i) {
    EXPECT_EQ(first.queries[i].sssp.distances,
              second.queries[i].sssp.distances);
  }
  // Pooled buffers / warm caches may change time, never instructions.
  EXPECT_EQ(first.warp_instructions, second.warp_instructions);
}

TEST(QueryBatch, AddsEngineMatchesOracleAndOverlaps) {
  const Csr csr = batch_test_graph();
  const std::vector<VertexId> sources = batch_test_sources();
  core::QueryBatchOptions options;
  options.engine = core::BatchEngine::kAdds;
  options.streams = 4;
  options.adds_delta = 150.0;
  core::QueryBatch batch(csr, gpusim::test_device(), options);
  const core::BatchResult result = batch.run(sources);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(result.queries[i].sssp.distances,
              sssp::dijkstra(csr, sources[i]).distances);
  }
  EXPECT_LT(result.makespan_ms, result.sum_latency_ms);
}

TEST(QueryBatch, MetricsAreConsistent) {
  const Csr csr = batch_test_graph();
  const std::vector<VertexId> sources = batch_test_sources();
  core::QueryBatchOptions options;
  options.streams = 4;
  core::QueryBatch batch(csr, gpusim::test_device(), options);
  const core::BatchResult result = batch.run(sources);

  ASSERT_EQ(result.stats.size(), sources.size());
  double sum_latency = 0;
  std::uint64_t instructions = 0;
  for (const core::QueryStats& qs : result.stats) {
    EXPECT_GT(qs.device_ms, 0);
    EXPECT_GT(qs.warp_instructions, 0u);
    EXPECT_GT(qs.mwips, 0);
    EXPECT_GE(qs.queue_wait_ms, 0);
    EXPECT_LT(qs.stream, batch.streams());
    sum_latency += qs.device_ms;
    instructions += qs.warp_instructions;
  }
  EXPECT_DOUBLE_EQ(result.sum_latency_ms, sum_latency);
  EXPECT_EQ(result.warp_instructions, instructions);
  // Overlap can only shrink the makespan, to no less than the slowest query.
  EXPECT_LE(result.makespan_ms, result.sum_latency_ms + 1e-9);
  EXPECT_GT(result.aggregate_mwips, 0);
}

// --- per-query failure isolation (gfi) --------------------------------------

TEST(QueryBatch, InvalidSourceFailsThatQueryAlone) {
  const Csr csr = batch_test_graph();
  const VertexId bad = csr.num_vertices() + 5;
  const std::vector<VertexId> sources = {0, bad, 113, 399};
  core::QueryBatchOptions options;
  options.streams = 2;
  core::QueryBatch batch(csr, gpusim::test_device(), options);
  const core::BatchResult result = batch.run(sources);

  ASSERT_EQ(result.queries.size(), sources.size());
  ASSERT_EQ(result.stats.size(), sources.size());
  EXPECT_EQ(result.failed_queries, 1u);
  EXPECT_EQ(result.stats[1].status, core::QueryStatus::kFailed);
  EXPECT_FALSE(result.stats[1].error.empty());
  EXPECT_FALSE(result.queries[1].ok);
  EXPECT_TRUE(result.queries[1].sssp.distances.empty());
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_EQ(result.stats[i].status, core::QueryStatus::kOk);
    EXPECT_EQ(result.queries[i].sssp.distances,
              sssp::dijkstra(csr, sources[i]).distances);
  }
}

TEST(QueryBatch, FaultedBatchClassifiesPerQueryStatus) {
  const Csr csr = batch_test_graph();
  const std::vector<VertexId> sources = batch_test_sources();
  core::QueryBatchOptions options;
  options.streams = 2;
  options.gpu.fault.enabled = true;
  options.gpu.fault.seed = 23;
  options.gpu.fault.launch_failure = 0.15;
  core::QueryBatch batch(csr, gpusim::test_device(), options);
  const core::BatchResult result = batch.run(sources);

  EXPECT_EQ(result.failed_queries, 0u);
  std::uint64_t recovered = 0, fallback = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    SCOPED_TRACE(i);
    const core::QueryStatus status = result.stats[i].status;
    recovered += status == core::QueryStatus::kRecovered;
    fallback += status == core::QueryStatus::kCpuFallback;
    EXPECT_TRUE(result.queries[i].ok);
    EXPECT_EQ(result.queries[i].sssp.distances,
              sssp::dijkstra(csr, sources[i]).distances);
  }
  EXPECT_EQ(result.recovered_queries, recovered);
  EXPECT_EQ(result.fallback_queries, fallback);
  // The plan injects something on this seed; the tallies must agree with
  // the per-query recovery stats.
  EXPECT_GT(result.recovery.faults_injected, 0u);
  EXPECT_EQ(result.recovery.retries > 0 || result.recovery.cpu_fallbacks > 0,
            recovered + fallback > 0);
}

TEST(QueryBatch, FaultsOffBatchReportsAllOk) {
  const Csr csr = batch_test_graph();
  const std::vector<VertexId> sources = batch_test_sources();
  core::QueryBatchOptions options;
  options.streams = 3;
  core::QueryBatch batch(csr, gpusim::test_device(), options);
  const core::BatchResult result = batch.run(sources);
  EXPECT_EQ(result.failed_queries, 0u);
  EXPECT_EQ(result.recovered_queries, 0u);
  EXPECT_EQ(result.fallback_queries, 0u);
  EXPECT_EQ(result.recovery.faults_injected, 0u);
  for (const core::QueryStats& qs : result.stats) {
    EXPECT_EQ(qs.status, core::QueryStatus::kOk);
    EXPECT_TRUE(qs.error.empty());
  }
}

// --- gpusim stream semantics ------------------------------------------------

gpusim::LaunchResult tiny_kernel(gpusim::GpuSim& sim, gpusim::StreamId s) {
  auto buf = sim.alloc<float>("buf" + std::to_string(s), 1 << 12);
  return sim.run_kernel(
      gpusim::Schedule::kDynamic, 512, /*warps_per_block=*/8,
      [&](gpusim::WarpCtx& ctx, std::uint64_t t) {
        std::uint64_t idx[32];
        float out[32];
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
          idx[lane] = (t * 32 + lane) % buf.size();
        }
        ctx.load(buf, idx, std::span<float>(out, 32));
        ctx.alu(8);
      },
      /*host_launch=*/true, s);
}

// Regression (serving-layer admission control): an all-failed warm-up
// batch must leave the lane cost estimates at their seed. A failed attempt
// can cost near-zero device time (an immediate launch failure with retries
// and fallback disabled); folding that into the EWMA would drag the
// estimate toward zero and let every future query through the load shedder.
TEST(QueryBatch, AllFailedWarmupLeavesCostEstimatesAtSeed) {
  const Csr csr = batch_test_graph();
  core::QueryBatchOptions options;
  options.streams = 2;
  options.gpu.delta0 = 150.0;
  options.gpu.fault.enabled = true;
  options.gpu.fault.seed = 11;
  options.gpu.fault.launch_failure = 1.0;   // every launch fails...
  options.gpu.fault.max_faults = 100000;    // ...for the whole batch
  options.gpu.retry.max_attempts = 1;       // no retries
  options.gpu.retry.cpu_fallback = false;   // no rescue: kFailed everywhere
  core::QueryBatch batch(csr, gpusim::test_device(), options);

  const double seed_ms = batch.cost_seed_ms();
  ASSERT_GT(seed_ms, 0.0);
  const std::vector<VertexId> sources = batch_test_sources();
  const core::BatchResult result = batch.run(sources);
  ASSERT_EQ(result.failed_queries, sources.size());

  for (int lane = 0; lane < batch.num_lanes(); ++lane) {
    EXPECT_EQ(batch.lane_cost_estimate_ms(lane), seed_ms) << "lane " << lane;
  }
}

// The complement: successful queries DO teach the estimator.
TEST(QueryBatch, SuccessfulQueriesMoveCostEstimatesOffTheSeed) {
  const Csr csr = batch_test_graph();
  core::QueryBatchOptions options;
  options.streams = 1;
  options.gpu.delta0 = 150.0;
  core::QueryBatch batch(csr, gpusim::test_device(), options);

  const double seed_ms = batch.cost_seed_ms();
  const core::BatchResult result = batch.run(batch_test_sources());
  ASSERT_EQ(result.failed_queries, 0u);
  EXPECT_NE(batch.lane_cost_estimate_ms(0), seed_ms);
  EXPECT_GT(batch.lane_cost_estimate_ms(0), 0.0);
}

// Regression (result cache, same failure mode as the all-failed warm-up
// above): a warm-started run costs less device time than a cold one, so
// folding it into the lane cost EWMA would skew the load shedder's COLD-
// cost prediction downward. Warm runs must leave the estimate untouched;
// an identical cold run on the same lane must move it.
TEST(QueryBatch, WarmStartedRunsLeaveCostEstimatesUntouched) {
  const Csr csr = batch_test_graph();
  core::QueryBatchOptions options;
  options.streams = 1;
  options.gpu.delta0 = 150.0;
  core::QueryBatch batch(csr, gpusim::test_device(), options);

  core::ResultCacheOptions copts;
  copts.enabled = true;
  copts.landmarks = 1;
  core::ResultCache cache(csr, copts);
  ASSERT_TRUE(cache.graph_symmetric());
  cache.publish(0, core::QueryStatus::kOk, sssp::dijkstra(csr, 0).distances,
                /*publish_ms=*/0.0);
  batch.set_result_cache(&cache);

  const double seed_ms = batch.cost_seed_ms();
  const core::QueryBatch::LaneOutcome warm = batch.run_on_lane(0, 17);
  ASSERT_EQ(warm.stats.status, core::QueryStatus::kOk);
  ASSERT_TRUE(warm.stats.warm_started);
  EXPECT_EQ(warm.result.sssp.distances, sssp::dijkstra(csr, 17).distances);
  EXPECT_EQ(batch.lane_cost_estimate_ms(0), seed_ms);

  // The same query served cold (cache detached) does teach the estimator.
  batch.set_result_cache(nullptr);
  const core::QueryBatch::LaneOutcome cold = batch.run_on_lane(0, 17);
  ASSERT_EQ(cold.stats.status, core::QueryStatus::kOk);
  ASSERT_FALSE(cold.stats.warm_started);
  EXPECT_NE(batch.lane_cost_estimate_ms(0), seed_ms);
}

TEST(GpuSimStreams, SingleStreamAccumulatesLikeLegacyTimeline) {
  gpusim::GpuSim sim(gpusim::test_device());
  double sum = 0;
  for (int i = 0; i < 3; ++i) sum += tiny_kernel(sim, 0).ms;
  EXPECT_DOUBLE_EQ(sim.stream_elapsed_ms(0), sum);
  EXPECT_DOUBLE_EQ(sim.elapsed_ms(), sum);
  EXPECT_DOUBLE_EQ(sim.stream_queue_wait_ms(0), 0);
  EXPECT_EQ(sim.stream_kernels(0), 3u);
}

TEST(GpuSimStreams, ConcurrentStreamsOverlapBelowTheCap) {
  gpusim::DeviceSpec spec = gpusim::test_device();
  ASSERT_GE(spec.max_concurrent_kernels, 4);
  gpusim::GpuSim sim(spec);
  double sum = 0;
  double longest = 0;
  for (gpusim::StreamId s = 0; s < 4; ++s) {
    const double ms = tiny_kernel(sim, s).ms;
    sum += ms;
    longest = std::max(longest, ms);
  }
  // Under the cap every stream starts at 0, so the makespan is the longest
  // stream, floored by the whole-device throughput bound.
  EXPECT_LT(sim.elapsed_ms(), sum);
  EXPECT_GE(sim.elapsed_ms(), longest);
  EXPECT_GE(sim.elapsed_ms(), sim.device_busy_floor_ms());
  for (gpusim::StreamId s = 0; s < 4; ++s) {
    EXPECT_DOUBLE_EQ(sim.stream_queue_wait_ms(s), 0);
  }
}

TEST(GpuSimStreams, ConcurrencyCapSerializesAndRecordsQueueWait) {
  gpusim::DeviceSpec spec = gpusim::test_device();
  spec.max_concurrent_kernels = 1;
  gpusim::GpuSim sim(spec);
  std::vector<double> ms;
  for (gpusim::StreamId s = 0; s < 3; ++s) ms.push_back(tiny_kernel(sim, s).ms);

  // cap=1 is a serial device: kernels run back-to-back in arrival order.
  EXPECT_DOUBLE_EQ(sim.elapsed_ms(), ms[0] + ms[1] + ms[2]);
  EXPECT_DOUBLE_EQ(sim.stream_queue_wait_ms(0), 0);
  EXPECT_DOUBLE_EQ(sim.stream_queue_wait_ms(1), ms[0]);
  EXPECT_DOUBLE_EQ(sim.stream_queue_wait_ms(2), ms[0] + ms[1]);
}

TEST(GpuSimStreams, ResetTimeClearsStreamsAndFloor) {
  gpusim::GpuSim sim(gpusim::test_device());
  tiny_kernel(sim, 2);
  ASSERT_GT(sim.elapsed_ms(), 0);
  sim.reset_time();
  EXPECT_DOUBLE_EQ(sim.elapsed_ms(), 0);
  EXPECT_DOUBLE_EQ(sim.device_busy_floor_ms(), 0);
  EXPECT_DOUBLE_EQ(sim.stream_elapsed_ms(2), 0);
  EXPECT_DOUBLE_EQ(sim.stream_queue_wait_ms(2), 0);
}

}  // namespace
}  // namespace rdbs

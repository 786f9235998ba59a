// Multi-GPU fault tolerance and report merging (ISSUE 4 satellite).
//
// The correctness contract under faults is the same as everywhere else in
// the suite: recovery must land on distances bit-identical to the host
// Dijkstra reference, or fail typed — never silently wrong. On the
// multi-GPU engine a lost shard cannot be re-packed onto survivors (the
// partition is 1D-contiguous), so device loss degrades the whole query to
// the CPU reference; everything milder retries the bucket walk.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/device_graph.hpp"
#include "core/multi_gpu.hpp"
#include "core/recovery.hpp"
#include "gpusim/device.hpp"
#include "gpusim/fault.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace rdbs {
namespace {

using graph::Csr;
using graph::VertexId;

Csr shard_graph() { return test::random_powerlaw_graph(500, 4000, 131); }

std::vector<std::string> fault_plan(const core::MultiGpuRunResult& result) {
  std::vector<std::string> plan;
  plan.reserve(result.gpu.faults.size());
  for (const gpusim::GpuFault& f : result.gpu.faults) {
    plan.push_back(std::to_string(f.device) + ":" + f.describe());
  }
  return plan;
}

TEST(MultiGpuFaults, DeviceLossDegradesToExactCpuDistances) {
  const Csr csr = shard_graph();
  for (int devices : {2, 3}) {
    SCOPED_TRACE(devices);
    core::MultiGpuOptions options;
    options.num_devices = devices;
    options.fault.enabled = true;
    options.fault.seed = 51;
    options.fault.device_loss = 1.0;
    core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
    const core::MultiGpuRunResult result = engine.run(3);
    ASSERT_TRUE(result.gpu.ok);
    EXPECT_TRUE(result.gpu.recovery.device_lost);
    EXPECT_TRUE(engine.any_device_lost());
    EXPECT_EQ(result.gpu.recovery.cpu_fallbacks, 1u);
    EXPECT_EQ(result.gpu.sssp.distances, sssp::dijkstra(csr, 3).distances);
  }
}

TEST(MultiGpuFaults, DeviceLossWithoutFallbackFailsTyped) {
  const Csr csr = shard_graph();
  core::MultiGpuOptions options;
  options.num_devices = 2;
  options.fault.enabled = true;
  options.fault.seed = 51;
  options.fault.device_loss = 1.0;
  options.retry.cpu_fallback = false;
  core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
  const core::MultiGpuRunResult result = engine.run(3);
  EXPECT_FALSE(result.gpu.ok);
  EXPECT_TRUE(result.gpu.recovery.device_lost);
  ASSERT_FALSE(result.gpu.faults.empty());
  bool saw_loss = false;
  for (const gpusim::GpuFault& f : result.gpu.faults) {
    saw_loss = saw_loss || f.cls == gpusim::FaultClass::kDeviceLoss;
  }
  EXPECT_TRUE(saw_loss);
}

TEST(MultiGpuFaults, LaunchFailuresRetryToBitIdenticalDistances) {
  const Csr csr = shard_graph();
  core::MultiGpuOptions options;
  options.num_devices = 3;
  options.fault.enabled = true;
  options.fault.seed = 52;
  options.fault.launch_failure = 0.3;
  options.fault.max_faults = 5;
  options.retry.max_attempts = 8;
  core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
  const core::MultiGpuRunResult result = engine.run(0);
  ASSERT_TRUE(result.gpu.ok);
  EXPECT_EQ(result.gpu.sssp.distances, sssp::dijkstra(csr, 0).distances);
  // Merged fault report: every fault is tagged with the shard it hit.
  EXPECT_GT(result.gpu.recovery.faults_injected, 0u);
  EXPECT_EQ(result.gpu.recovery.faults_injected, result.gpu.faults.size());
  for (const gpusim::GpuFault& f : result.gpu.faults) {
    EXPECT_GE(f.device, 0);
    EXPECT_LT(f.device, options.num_devices);
  }
  // Recovery bookkeeping follows the same law as every other engine.
  EXPECT_GT(result.gpu.recovery.retries, 0u);
  EXPECT_EQ(result.gpu.recovery.attempts, result.gpu.recovery.retries + 1);
  EXPECT_EQ(result.gpu.recovery.backoff_ms,
            test::expected_backoff_ms(options.retry,
                                      result.gpu.recovery.retries));
}

TEST(MultiGpuFaults, PerShardPlansAreReproducible) {
  const Csr csr = shard_graph();
  core::MultiGpuOptions options;
  options.num_devices = 3;
  options.fault.enabled = true;
  options.fault.seed = 53;
  options.fault.launch_failure = 0.2;
  options.fault.stream_stall = 0.2;
  options.fault.max_faults = 6;
  options.retry.max_attempts = 8;

  core::MultiGpuDeltaStepping a(gpusim::test_device(), csr, options);
  core::MultiGpuDeltaStepping b(gpusim::test_device(), csr, options);
  const core::MultiGpuRunResult ra = a.run(1);
  const core::MultiGpuRunResult rb = b.run(1);
  EXPECT_EQ(fault_plan(ra), fault_plan(rb));
  EXPECT_EQ(ra.gpu.sssp.distances, rb.gpu.sssp.distances);
  EXPECT_EQ(ra.gpu.recovery.retries, rb.gpu.recovery.retries);
  EXPECT_DOUBLE_EQ(ra.gpu.device_ms, rb.gpu.device_ms);
}

TEST(MultiGpuFaults, ShardSeedsAreIndependent) {
  const Csr csr = shard_graph();
  core::MultiGpuOptions options;
  options.num_devices = 4;
  options.fault.enabled = true;
  options.fault.seed = 54;
  options.fault.launch_failure = 0.6;
  options.fault.max_faults = 8;
  options.retry.max_attempts = 10;
  core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
  const core::MultiGpuRunResult result = engine.run(0);
  ASSERT_TRUE(result.gpu.ok);
  // With a per-shard derived seed and p=0.6, the shards must not all fault
  // on the same launch ordinals — at least two distinct shards appear.
  ASSERT_GT(result.gpu.faults.size(), 1u);
  bool distinct = false;
  for (const gpusim::GpuFault& f : result.gpu.faults) {
    distinct = distinct || f.device != result.gpu.faults.front().device;
  }
  EXPECT_TRUE(distinct);
}

TEST(MultiGpuFaults, FaultFreeRunReportsNoRecovery) {
  const Csr csr = shard_graph();
  core::MultiGpuOptions options;
  options.num_devices = 3;
  core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
  const core::MultiGpuRunResult result = engine.run(2);
  ASSERT_TRUE(result.gpu.ok);
  EXPECT_FALSE(engine.any_device_lost());
  EXPECT_TRUE(result.gpu.faults.empty());
  EXPECT_EQ(result.gpu.recovery.retries, 0u);
  EXPECT_EQ(result.gpu.recovery.cpu_fallbacks, 0u);
  EXPECT_EQ(result.gpu.recovery.attempts, 1u);
  EXPECT_EQ(result.per_device_busy_ms.size(), 3u);
  EXPECT_EQ(result.gpu.sssp.distances, sssp::dijkstra(csr, 2).distances);
}

TEST(MultiGpuFaults, SanitizerAndFaultsComposeClean) {
  const Csr csr = test::random_grid_graph(14, 7);
  core::MultiGpuOptions options;
  options.num_devices = 2;
  options.sanitize = gpusim::SanitizeMode::kOn;
  options.fault.enabled = true;
  options.fault.seed = 55;
  options.fault.launch_failure = 0.2;
  options.retry.max_attempts = 6;
  core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
  const core::MultiGpuRunResult result = engine.run(0);
  ASSERT_TRUE(result.gpu.ok);
  // Retried attempts run the same (hazard-free) kernels; the merged
  // per-device report must stay empty.
  EXPECT_EQ(result.gpu.sanitizer_report, "");
  EXPECT_EQ(result.gpu.sssp.distances, sssp::dijkstra(csr, 0).distances);
}

// The frame MultiGpu runs on, driven to the CPU fallback with a seeded
// out-of-bounds store on shard 1: every launch fails, so both attempts are
// discarded, and the fallback result must still name the shard's hazard.
TEST(MultiGpuFaults, GsanReportSurvivesCpuFallback) {
  const Csr csr = test::paper_figure1_graph();
  const VertexId n = csr.num_vertices();
  gpusim::FaultConfig fault;
  fault.enabled = true;
  fault.seed = 3;
  fault.launch_failure = 1.0;
  const core::EngineDevice shard0(gpusim::test_device(), csr, 0, n / 2,
                                  gpusim::SanitizeMode::kOn, fault);
  const core::EngineDevice shard1(gpusim::test_device(), csr, n / 2, n,
                                  gpusim::SanitizeMode::kOn, fault);
  gpusim::GpuSim& sim = shard1.sim();
  auto data = sim.alloc<std::uint32_t>("data", 8);
  sim.mark_initialized(data);
  core::AttemptContext ctx;
  ctx.attach_shard(shard0);
  ctx.attach_shard(shard1);
  core::RetryPolicy policy;
  policy.max_attempts = 2;
  const core::GpuRunResult result = core::run_with_recovery(
      ctx, policy, csr, 0, [&](core::AttemptContext&) {
        sim.label_next_launch("oob_kernel");
        sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                       [&](gpusim::WarpCtx& w, std::uint64_t) {
                         w.store_one(data, 100, 7u);
                       });
        return core::GpuRunResult{};
      });
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.recovery.attempts, 2u);
  EXPECT_EQ(result.recovery.cpu_fallbacks, 1u);
  EXPECT_EQ(result.sanitizer_report,
            "[gpu1] [gsan] out-of-bounds: kernel=oob_kernel buffer=data "
            "elem=100 warp=0 x2\n");
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 0).distances);
}

TEST(MultiGpuFaults, InvalidSourceThrows) {
  const Csr csr = test::paper_figure1_graph();
  core::MultiGpuOptions options;
  options.num_devices = 2;
  core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
  EXPECT_THROW(engine.run(csr.num_vertices()), std::out_of_range);
}

}  // namespace
}  // namespace rdbs

// gsan-on vs gsan-off equivalence (docs/costmodel.md, "Charge path"):
// every launch is charged inline, and the sanitizer only adds a recorded
// trace that it scans at end_launch. Turning gsan on must therefore change
// nothing else — identical counters, per-launch times, fault decisions and
// distances — while the recorded trace stays compact. A seeded mixed
// workload sweeps the op-kind and access-pattern space; RDBS and ADDS
// solves on a kron and a road surrogate cover the engines.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/adds.hpp"
#include "core/rdbs.hpp"
#include "gpusim/sim.hpp"
#include "graph/surrogates.hpp"

namespace rdbs::gpusim {
namespace {

struct Observation {
  Counters counters;
  std::vector<double> launch_ms;
  std::vector<float> data;
  std::string hazard_report;
  std::vector<std::string> faults;
  TraceStats stats;
};

// Seeded mixed workload: strided loads, scattered loads, duplicate-heavy
// atomics, volatile accesses and plain stores whose address ranges overlap
// across tasks (so the sanitizer has real races to report) — across several
// launches so cross-launch cache state is covered too.
Observation run_workload(bool sanitize, bool inject_faults) {
  GpuSim sim(test_device());
  if (sanitize) sim.enable_sanitizer(SanitizeMode::kOn);
  if (inject_faults) {
    FaultConfig fc;
    fc.enabled = true;
    fc.seed = 2024;
    fc.bit_flip_per_load = 0.02;
    fc.correctable_fraction = 1.0;  // log-only: keep the workload identical
    fc.max_faults = 64;
    sim.enable_fault_injection(fc);
  }

  auto data = sim.alloc<float>("data", 1 << 14);
  auto cells = sim.alloc<std::uint32_t>("cells", 512);
  Observation obs;
  Xoshiro256 rng(7);
  for (int launch = 0; launch < 3; ++launch) {
    const LaunchResult r = sim.run_kernel(
        Schedule::kDynamic, /*num_tasks=*/160, /*warps_per_block=*/4,
        [&](WarpCtx& ctx, std::uint64_t t) {
          std::array<std::uint64_t, 32> idx;
          std::array<float, 32> out;
          const std::uint32_t lanes = 1 + static_cast<std::uint32_t>(
                                              rng.uniform_real() * 31.0);
          switch (t % 5) {
            case 0:  // strided load (the common engine pattern)
              for (std::uint32_t l = 0; l < lanes; ++l) {
                idx[l] = (t * 64 + l) % data.size();
              }
              ctx.load(data, std::span<const std::uint64_t>(idx.data(), lanes),
                       std::span<float>(out.data(), lanes));
              break;
            case 1:  // scattered load, every lane its own line
              for (std::uint32_t l = 0; l < lanes; ++l) {
                idx[l] = ((t * 32 + l) * 2654435761ull) % data.size();
              }
              ctx.load(data, std::span<const std::uint64_t>(idx.data(), lanes),
                       std::span<float>(out.data(), lanes));
              break;
            case 2:  // duplicate-heavy atomics (conflict serialization)
              for (std::uint32_t l = 0; l < lanes; ++l) {
                idx[l] = (t + l % 3) % cells.size();
              }
              ctx.atomic_touch(cells, std::span<const std::uint64_t>(
                                          idx.data(), lanes));
              break;
            case 3:  // volatile round trip (L1 bypass path)
              for (std::uint32_t l = 0; l < lanes; ++l) {
                idx[l] = (t * 16 + l * 2) % data.size();
              }
              ctx.volatile_load(data,
                                std::span<const std::uint64_t>(idx.data(),
                                                               lanes),
                                std::span<float>(out.data(), lanes));
              break;
            default:  // store write-through
              for (std::uint32_t l = 0; l < lanes; ++l) {
                idx[l] = (t * 48 + l) % data.size();
                out[l] = static_cast<float>(t);
              }
              ctx.store(data,
                        std::span<const std::uint64_t>(idx.data(), lanes),
                        std::span<const float>(out.data(), lanes));
          }
          ctx.alu(2);
        });
    obs.launch_ms.push_back(r.ms);
  }
  obs.counters = sim.counters();
  obs.data = data.data();
  if (sim.sanitizer() != nullptr) {
    obs.hazard_report = sim.sanitizer()->report();
  }
  for (const GpuFault& f : sim.fault_log()) {
    obs.faults.push_back(f.describe());
  }
  obs.stats = sim.trace_stats();
  return obs;
}

void expect_sanitizer_only_observes(bool inject_faults) {
  const Observation off = run_workload(/*sanitize=*/false, inject_faults);
  const Observation on = run_workload(/*sanitize=*/true, inject_faults);
  EXPECT_TRUE(on.counters == off.counters);
  EXPECT_EQ(on.launch_ms, off.launch_ms);
  EXPECT_EQ(on.data, off.data);
  EXPECT_EQ(on.faults, off.faults);
  if (inject_faults) {
    EXPECT_FALSE(off.faults.empty());
  }
  // The trace is recorded only under gsan, and gsan found the seeded races.
  EXPECT_EQ(off.stats.peak_trace_bytes, 0u);
  EXPECT_GT(on.stats.peak_trace_bytes, 0u);
  EXPECT_FALSE(on.hazard_report.empty());
}

TEST(GsanTrace, MixedWorkloadIdenticalWithSanitizerOnAndOff) {
  expect_sanitizer_only_observes(/*inject_faults=*/false);
}

TEST(GsanTrace, MixedWorkloadUnderFaultPlanIdenticalWithSanitizerOnAndOff) {
  expect_sanitizer_only_observes(/*inject_faults=*/true);
}

TEST(GsanTrace, CompressedTraceAtLeast4xSmallerThanAos) {
  // The capacity claim behind the sanitized SCALE-21 run: on the engine's
  // dominant access shape (warp-local small strides) the delta/varint
  // stream plus per-op kind and lane bytes must undercut an array-of-
  // structs trace (an 8-byte op record plus 8 bytes per lane) by >= 4x.
  constexpr std::uint64_t kTasks = 256;
  constexpr std::uint64_t kLanes = 32;
  constexpr std::uint64_t kAosOpRecordBytes = 8;
  GpuSim sim(test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto data = sim.alloc<float>("data", 1 << 16);
  sim.mark_initialized(data);
  sim.run_kernel(Schedule::kDynamic, kTasks, 4,
                 [&](WarpCtx& ctx, std::uint64_t t) {
                   std::array<std::uint64_t, kLanes> idx;
                   std::array<float, kLanes> out;
                   for (std::uint32_t l = 0; l < kLanes; ++l) {
                     idx[l] = (t * kLanes + l) % data.size();
                   }
                   ctx.load(data, idx, std::span<float>(out));
                 });
  const std::uint64_t aos_bytes =
      kTasks * (kAosOpRecordBytes + kLanes * sizeof(std::uint64_t));
  const std::uint64_t trace_bytes = sim.trace_stats().peak_trace_bytes;
  ASSERT_GT(trace_bytes, 0u);
  EXPECT_GE(aos_bytes, 4 * trace_bytes);
}

// gsan reports hazards in first-touch order, which follows each op's
// original lane order. The charge path sorts the staged lanes in place to
// coalesce them, so the trace must take its copy before the charge.
TEST(GsanTrace, ReportFollowsOriginalLaneOrder) {
  GpuSim sim(test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto data = sim.alloc<std::uint32_t>("data", 64);
  sim.mark_initialized(data);
  sim.run_kernel(Schedule::kStatic, /*num_tasks=*/2, /*warps_per_block=*/1,
                 [&](WarpCtx& ctx, std::uint64_t) {
                   // Descending lanes: sorting would reverse the report.
                   const std::array<std::uint64_t, 3> idx = {40, 20, 0};
                   const std::array<std::uint32_t, 3> val = {1, 2, 3};
                   ctx.store(data, idx, std::span<const std::uint32_t>(val));
                 });
  const std::string report = sim.sanitizer()->report();
  const std::size_t first = report.find("elem=40 ");
  const std::size_t last = report.find("elem=0 ");
  ASSERT_NE(first, std::string::npos) << report;
  ASSERT_NE(last, std::string::npos) << report;
  EXPECT_LT(first, last) << report;
}

// Engine-level check: full solves with gsan on and off must agree on
// distances, counters and modeled time, and the engines stay hazard-free.
// Both graph families: the power-law kron surrogate (few wide frontiers)
// and the road surrogate (many narrow ones, so many more launches).
graph::Csr engine_graph(const std::string& name) {
  graph::LoadOptions load;
  load.size_scale = -1;
  load.weights = graph::WeightScheme::kUniformInt1To1000;
  load.seed = 42;
  return graph::load_dataset_by_name(name, load);
}

void expect_same_run(const core::GpuRunResult& on,
                     const core::GpuRunResult& off) {
  EXPECT_TRUE(on.counters == off.counters);
  EXPECT_EQ(on.device_ms, off.device_ms);
  EXPECT_EQ(on.sssp.distances, off.sssp.distances);
  EXPECT_EQ(on.sanitizer_report, "");
}

void expect_rdbs_sanitizer_only_observes(const std::string& dataset) {
  const graph::Csr csr = engine_graph(dataset);
  auto solve = [&](SanitizeMode mode) {
    core::GpuSsspOptions options;
    options.basyn = options.pro = options.adwl = true;
    options.sanitize = mode;
    core::RdbsSolver solver(csr, test_device(), options);
    return solver.solve(/*source=*/3);
  };
  expect_same_run(solve(SanitizeMode::kOn), solve(SanitizeMode::kOff));
}

void expect_adds_sanitizer_only_observes(const std::string& dataset) {
  const graph::Csr csr = engine_graph(dataset);
  auto solve = [&](SanitizeMode mode) {
    core::AddsOptions options;
    options.sanitize = mode;
    core::AddsLike adds(test_device(), csr, options);
    return adds.run(/*source=*/3);
  };
  expect_same_run(solve(SanitizeMode::kOn), solve(SanitizeMode::kOff));
}

TEST(GsanTrace, RdbsSolveIdenticalWithSanitizerOnAndOff) {
  expect_rdbs_sanitizer_only_observes("k-n21-16");
}

TEST(GsanTrace, RdbsRoadSolveIdenticalWithSanitizerOnAndOff) {
  expect_rdbs_sanitizer_only_observes("road-TX");
}

TEST(GsanTrace, AddsSolveIdenticalWithSanitizerOnAndOff) {
  expect_adds_sanitizer_only_observes("k-n21-16");
}

TEST(GsanTrace, AddsRoadSolveIdenticalWithSanitizerOnAndOff) {
  expect_adds_sanitizer_only_observes("road-TX");
}

}  // namespace
}  // namespace rdbs::gpusim

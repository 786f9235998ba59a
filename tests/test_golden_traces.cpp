// Golden-trace regression anchors (ISSUE 4 satellite).
//
// Three fixed (engine, graph, seed) triples snapshot their full Counters
// and final distances into checked-in golden files. Any change to the cost
// model, the memory model, an engine's kernel structure, or the graph
// generators shows up here as a readable diff instead of a silent drift.
//
// Regenerate intentionally with:
//   RDBS_UPDATE_GOLDEN=1 ./tests/test_golden_traces
// and commit the updated files under tests/golden/ with an explanation.
//
// Distances are serialized as C++ hexfloats, so the comparison is exact
// (bit-identical), matching the determinism contract in docs/costmodel.md.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/adds.hpp"
#include "core/query_server.hpp"
#include "core/rdbs.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

#ifndef RDBS_GOLDEN_DIR
#error "tests/CMakeLists.txt must define RDBS_GOLDEN_DIR"
#endif

namespace rdbs {
namespace {

using graph::Csr;
using graph::VertexId;

std::string serialize_trace(const core::GpuRunResult& result) {
  std::ostringstream out;
  const gpusim::Counters& c = result.counters;
  out << "inst_executed_global_loads " << c.inst_executed_global_loads << '\n'
      << "inst_executed_global_stores " << c.inst_executed_global_stores
      << '\n'
      << "inst_executed_atomics " << c.inst_executed_atomics << '\n'
      << "l1_sector_accesses " << c.l1_sector_accesses << '\n'
      << "l1_sector_hits " << c.l1_sector_hits << '\n'
      << "l2_sector_accesses " << c.l2_sector_accesses << '\n'
      << "l2_sector_hits " << c.l2_sector_hits << '\n'
      << "alu_instructions " << c.alu_instructions << '\n'
      << "memory_transactions " << c.memory_transactions << '\n'
      << "dram_bytes " << c.dram_bytes << '\n'
      << "atomic_conflicts " << c.atomic_conflicts << '\n'
      << "kernel_launches " << c.kernel_launches << '\n'
      << "child_launches " << c.child_launches << '\n'
      << "active_lane_ops " << c.active_lane_ops << '\n'
      << "issued_lane_ops " << c.issued_lane_ops << '\n'
      << "volatile_accesses " << c.volatile_accesses << '\n'
      << "faults_injected " << c.faults_injected << '\n'
      << "ecc_corrected " << c.ecc_corrected << '\n';
  out << "distances " << result.sssp.distances.size() << '\n';
  out << std::hexfloat;
  for (const graph::Distance d : result.sssp.distances) out << d << '\n';
  return out.str();
}

void check_against_golden(const std::string& name,
                          const core::GpuRunResult& result) {
  const std::string path = std::string(RDBS_GOLDEN_DIR) + "/" + name + ".txt";
  const std::string actual = serialize_trace(result);

  if (std::getenv("RDBS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with RDBS_UPDATE_GOLDEN=1 and commit it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "trace drifted from " << path
      << " — if the change is intentional, regenerate with "
         "RDBS_UPDATE_GOLDEN=1 and commit the diff";
}

// Triple 1: the full RDBS configuration (BASYN+PRO+ADWL) on a power-law
// graph — the paper's flagship path.
TEST(GoldenTraces, RdbsFullOnPowerLaw) {
  const Csr csr = test::random_powerlaw_graph(300, 2400, /*seed=*/201);
  core::GpuSsspOptions options;
  options.delta0 = 150.0;
  core::RdbsSolver solver(csr, gpusim::test_device(), options);
  check_against_golden("rdbs_powerlaw_300_s201", solver.solve(5));
}

// Triple 2: the paper's BL baseline (synchronous push Bellman-Ford) on a
// grid — exercises the non-bucketed kernel family.
TEST(GoldenTraces, BaselineBlOnGrid) {
  const Csr csr = test::random_grid_graph(16, /*seed=*/202);
  core::GpuSsspOptions options;
  options.mode = core::EngineMode::kSyncPushBellmanFord;
  options.basyn = false;
  options.pro = false;
  options.adwl = false;
  core::RdbsSolver solver(csr, gpusim::test_device(), options);
  check_against_golden("bl_grid_16_s202", solver.solve(0));
}

// Triple 3: the ADDS-like Near/Far comparator on a power-law graph —
// anchors the second engine family and its distinct kernel shapes.
TEST(GoldenTraces, AddsOnPowerLaw) {
  const Csr csr = test::random_powerlaw_graph(250, 2000, /*seed=*/203);
  core::AddsOptions options;
  options.delta = 120.0;
  core::AddsLike engine(gpusim::test_device(), csr, options);
  check_against_golden("adds_powerlaw_250_s203", engine.run(7));
}

// Triple 4 (ISSUE 5): one QueryServer batch with every serving outcome in
// it — a recovered query (fault budget spent on the first), clean queries,
// a cooperative deadline cancellation with overrun-kernel accounting, and
// an admission-queue shed. Snapshots the serving decisions (status, finish
// time, overrun kernels, recovery counters) plus every produced distance
// vector, so a change to the scheduler, the cancellation points, the
// breaker bookkeeping or the cost model shows up as a readable diff.
TEST(GoldenTraces, QueryServerMixedOutcomeBatch) {
  const Csr csr = test::random_powerlaw_graph(300, 2400, /*seed=*/204);
  core::QueryServerOptions options;
  options.batch.streams = 2;
  options.batch.gpu.delta0 = 150.0;
  options.batch.gpu.fault.enabled = true;
  options.batch.gpu.fault.seed = 204;
  options.batch.gpu.fault.launch_failure = 1.0;  // until the budget...
  options.batch.gpu.fault.max_faults = 2;        // ...of 2 faults is spent
  options.shed_on_overload = false;  // let the tight deadline run and cancel
  options.hedge_to_cpu = false;
  options.max_pending = 4;  // the 5th offered query is shed on arrival
  core::QueryServer server(csr, gpusim::test_device(), options);

  std::vector<core::ServerQuery> queries(5);
  queries[0].source = 5;
  queries[1].source = 17;
  queries[2].source = 42;
  queries[2].deadline_ms = 1e-6;  // expires during its first kernels
  queries[3].source = 113;
  queries[4].source = 250;
  const core::StreamResult result = server.run(queries);

  // The batch must actually be mixed, or the snapshot's name lies.
  ASSERT_EQ(result.recovered_queries, 1u);
  ASSERT_EQ(result.ok_queries, 2u);
  ASSERT_EQ(result.deadline_queries, 1u);
  ASSERT_EQ(result.shed_queries, 1u);
  ASSERT_GT(result.overrun_kernels, 0u);

  std::ostringstream out;
  out << std::hexfloat;
  out << "makespan_ms " << result.makespan_ms << '\n';
  out << "overrun_kernels " << result.overrun_kernels << '\n';
  out << "attempts " << result.recovery.attempts << '\n';
  out << "retries " << result.recovery.retries << '\n';
  out << "faults_injected " << result.recovery.faults_injected << '\n';
  out << "backoff_ms " << result.recovery.backoff_ms << '\n';
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const core::StreamQueryStats& sq = result.stats[i];
    out << "query " << i << ' '
        << core::query_status_name(sq.query.status) << " finish "
        << sq.finish_ms << " device " << sq.query.device_ms << " overrun "
        << sq.overrun_kernels << '\n';
    out << "distances " << result.queries[i].sssp.distances.size() << '\n';
    for (const graph::Distance d : result.queries[i].sssp.distances) {
      out << d << '\n';
    }
  }

  const std::string path =
      std::string(RDBS_GOLDEN_DIR) + "/server_mixed_300_s204.txt";
  const std::string actual = out.str();
  if (std::getenv("RDBS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::trunc);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with RDBS_UPDATE_GOLDEN=1 and commit it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "serving trace drifted from " << path
      << " — if the change is intentional, regenerate with "
         "RDBS_UPDATE_GOLDEN=1 and commit the diff";

  // And the anchor is correct, not just stable: completed distances are
  // oracle-exact.
  for (const std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    EXPECT_EQ(result.queries[i].sssp.distances,
              sssp::dijkstra(csr, queries[i].source).distances);
  }
}

// The anchors themselves must be correct, not just stable.
TEST(GoldenTraces, AnchoredRunsMatchDijkstra) {
  {
    const Csr csr = test::random_powerlaw_graph(300, 2400, 201);
    core::GpuSsspOptions options;
    options.delta0 = 150.0;
    core::RdbsSolver solver(csr, gpusim::test_device(), options);
    EXPECT_EQ(solver.solve(5).sssp.distances,
              sssp::dijkstra(csr, 5).distances);
  }
  {
    const Csr csr = test::random_grid_graph(16, 202);
    core::GpuSsspOptions options;
    options.mode = core::EngineMode::kSyncPushBellmanFord;
    options.basyn = false;
    options.pro = false;
    options.adwl = false;
    core::RdbsSolver solver(csr, gpusim::test_device(), options);
    EXPECT_EQ(solver.solve(0).sssp.distances,
              sssp::dijkstra(csr, 0).distances);
  }
  {
    const Csr csr = test::random_powerlaw_graph(250, 2000, 203);
    core::AddsOptions options;
    options.delta = 120.0;
    core::AddsLike engine(gpusim::test_device(), csr, options);
    EXPECT_EQ(engine.run(7).sssp.distances,
              sssp::dijkstra(csr, 7).distances);
  }
}

}  // namespace
}  // namespace rdbs

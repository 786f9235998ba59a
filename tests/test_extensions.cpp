// Tests for the extension modules: the legacy GPU baselines (Harish-
// Narayanan 2007, Davidson 2014), ρ-stepping, alternative orderings, and
// the multi-GPU engine (the paper's stated future work).
#include <gtest/gtest.h>

#include <set>

#include "core/legacy_gpu.hpp"
#include "core/multi_gpu.hpp"
#include "core/rdbs.hpp"
#include "reorder/orderings.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/rho_stepping.hpp"
#include "sssp/validate.hpp"
#include "test_util.hpp"

namespace rdbs {
namespace {

using graph::Csr;
using graph::Distance;
using graph::VertexId;
using test::paper_figure1_graph;
using test::random_grid_graph;
using test::random_powerlaw_graph;

void expect_distances_equal(const std::vector<Distance>& actual,
                            const std::vector<Distance>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t v = 0; v < actual.size(); ++v) {
    EXPECT_DOUBLE_EQ(actual[v], expected[v]) << "vertex " << v;
  }
}

// --- Harish-Narayanan -------------------------------------------------------

TEST(HarishNarayanan, MatchesDijkstraOnFigure1) {
  const Csr csr = paper_figure1_graph();
  core::HarishNarayanan hn(gpusim::test_device(), csr);
  expect_distances_equal(hn.run(0).sssp.distances,
                         sssp::dijkstra(csr, 0).distances);
}

TEST(HarishNarayanan, MatchesDijkstraOnPowerLaw) {
  const Csr csr = random_powerlaw_graph(500, 4000, 91);
  core::HarishNarayanan hn(gpusim::test_device(), csr);
  const auto result = hn.run(7);
  expect_distances_equal(result.sssp.distances,
                         sssp::dijkstra(csr, 7).distances);
  EXPECT_FALSE(
      sssp::validate_distances(csr, 7, result.sssp.distances).has_value());
}

TEST(HarishNarayanan, TopologyDrivenScansAreVisible) {
  // HN07 scans all V every iteration: its load count must dwarf RDBS's on
  // the same graph.
  const Csr csr = random_powerlaw_graph(1000, 8000, 93);
  core::HarishNarayanan hn(gpusim::v100(), csr);
  core::RdbsSolver rdbs(csr, gpusim::v100());
  const auto hn_result = hn.run(0);
  const auto rdbs_result = rdbs.solve(0);
  EXPECT_GT(hn_result.counters.inst_executed_global_loads,
            rdbs_result.counters.inst_executed_global_loads);
  EXPECT_GT(hn_result.device_ms, rdbs_result.device_ms);
}

TEST(HarishNarayanan, DisconnectedGraphTerminates) {
  graph::EdgeList edges;
  edges.num_vertices = 50;
  edges.add_edge(0, 1, 3.0);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);
  core::HarishNarayanan hn(gpusim::test_device(), csr);
  const auto result = hn.run(0);
  EXPECT_DOUBLE_EQ(result.sssp.distances[1], 3.0);
  EXPECT_EQ(result.sssp.reached_count(), 2u);
}

// --- Davidson Near-Far ------------------------------------------------------

TEST(DavidsonNearFar, MatchesDijkstra) {
  const Csr csr = random_powerlaw_graph(600, 4800, 95);
  core::DavidsonOptions options;
  options.delta = 150.0;
  core::DavidsonNearFar davidson(gpusim::test_device(), csr, options);
  const auto result = davidson.run(2);
  expect_distances_equal(result.sssp.distances,
                         sssp::dijkstra(csr, 2).distances);
}

TEST(DavidsonNearFar, MatchesDijkstraOnGrid) {
  const Csr csr = random_grid_graph(18, 97);
  core::DavidsonOptions options;
  options.delta = 400.0;
  core::DavidsonNearFar davidson(gpusim::test_device(), csr, options);
  expect_distances_equal(davidson.run(0).sssp.distances,
                         sssp::dijkstra(csr, 0).distances);
}

TEST(DavidsonNearFar, EdgeBalancedSweepBeatsThreadPerVertexOnHubs) {
  // Workfront Sweep's raison d'etre: on a hub graph its edge-balanced
  // chunks avoid the max-degree warp stall of HN07's vertex mapping.
  // Hubs big enough that HN07's max-degree warp stall outweighs Davidson's
  // extra per-iteration launches.
  graph::StarHeavyParams params;
  params.num_vertices = 4000;
  params.num_hubs = 2;
  params.num_edges = 120000;
  params.seed = 99;
  graph::EdgeList edges = graph::generate_star_heavy(params);
  graph::assign_weights(edges, graph::WeightScheme::kUniformInt1To1000, 99);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);

  core::DavidsonOptions options;
  options.delta = 300.0;
  core::DavidsonNearFar davidson(gpusim::v100(), csr, options);
  core::HarishNarayanan hn(gpusim::v100(), csr);
  EXPECT_LT(davidson.run(0).device_ms, hn.run(0).device_ms);
}

// --- ρ-stepping -------------------------------------------------------------

TEST(RhoStepping, MatchesDijkstra) {
  const Csr csr = random_powerlaw_graph(800, 6400, 101);
  sssp::RhoSteppingOptions options;
  options.rho = 64;
  expect_distances_equal(sssp::rho_stepping(csr, 3, options).distances,
                         sssp::dijkstra(csr, 3).distances);
}

TEST(RhoStepping, RhoOneApproachesDijkstraWork) {
  // ρ = 1 is sequential Dijkstra-like: near-minimal redundant updates.
  const Csr csr = random_powerlaw_graph(400, 3200, 103);
  sssp::RhoSteppingOptions tight;
  tight.rho = 1;
  sssp::RhoSteppingOptions wide;
  wide.rho = 100000;  // effectively Bellman-Ford rounds
  const auto rt = sssp::rho_stepping(csr, 0, tight);
  const auto rw = sssp::rho_stepping(csr, 0, wide);
  expect_distances_equal(rt.distances, rw.distances);
  EXPECT_LE(rt.work.total_updates, rw.work.total_updates);
}

TEST(RhoStepping, GridGraph) {
  const Csr csr = random_grid_graph(16, 105);
  expect_distances_equal(sssp::rho_stepping(csr, 0).distances,
                         sssp::dijkstra(csr, 0).distances);
}

// --- alternative orderings --------------------------------------------------

class OrderingTest : public ::testing::TestWithParam<int> {};

TEST_P(OrderingTest, IsValidPermutationAndPreservesDistances) {
  const Csr csr = random_powerlaw_graph(300, 2400, 107);
  reorder::Permutation perm;
  switch (GetParam()) {
    case 0: perm = reorder::random_permutation(csr, 9); break;
    case 1: perm = reorder::bfs_permutation(csr); break;
    case 2: perm = reorder::rcm_like_permutation(csr); break;
    default: perm = reorder::hub_cluster_permutation(csr); break;
  }
  ASSERT_EQ(perm.size(), csr.num_vertices());
  // Bijectivity.
  std::set<VertexId> seen;
  for (VertexId r = 0; r < perm.size(); ++r) {
    seen.insert(perm.to_original(r));
  }
  EXPECT_EQ(seen.size(), csr.num_vertices());

  const Csr relabeled = reorder::apply_permutation(csr, perm);
  const auto reference = sssp::dijkstra(csr, 5);
  const auto mapped = perm.unpermute(
      sssp::dijkstra(relabeled, perm.to_reordered(5)).distances);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(mapped[v], reference.distances[v]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrderings, OrderingTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(Orderings, BfsPlacesNeighborsNearby) {
  // On a path graph, BFS ordering is (near-)sequential: the mean absolute
  // id distance between neighbors must be far below the random ordering's.
  graph::EdgeList edges;
  edges.num_vertices = 256;
  for (VertexId v = 0; v + 1 < 256; ++v) edges.add_edge(v, v + 1, 1.0);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);

  auto mean_gap = [&](const reorder::Permutation& perm) {
    double total = 0;
    std::uint64_t count = 0;
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      for (const VertexId u : csr.neighbors(v)) {
        total += std::abs(static_cast<double>(perm.to_reordered(v)) -
                          static_cast<double>(perm.to_reordered(u)));
        ++count;
      }
    }
    return total / static_cast<double>(count);
  };
  EXPECT_LT(mean_gap(reorder::bfs_permutation(csr)),
            mean_gap(reorder::random_permutation(csr, 3)) / 4);
}

TEST(Orderings, RcmReversesAndStaysBijective) {
  const Csr csr = random_grid_graph(10, 111);
  const reorder::Permutation perm = reorder::rcm_like_permutation(csr);
  EXPECT_EQ(perm.size(), csr.num_vertices());
  EXPECT_EQ(perm.to_reordered(perm.to_original(0)), 0u);
}

TEST(Orderings, HubClusterPutsTopHubFirst) {
  const Csr csr = random_powerlaw_graph(500, 8000, 113);
  VertexId top = 0;
  for (VertexId v = 1; v < csr.num_vertices(); ++v) {
    if (csr.degree(v) > csr.degree(top)) top = v;
  }
  const reorder::Permutation perm = reorder::hub_cluster_permutation(csr);
  EXPECT_EQ(perm.to_original(0), top);
}

// --- multi-GPU --------------------------------------------------------------

class MultiGpuTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiGpuTest, MatchesDijkstraOnPowerLaw) {
  const Csr csr = random_powerlaw_graph(700, 5600, 115);
  core::MultiGpuOptions options;
  options.num_devices = GetParam();
  options.delta0 = 200.0;
  core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
  const auto result = engine.run(4);
  expect_distances_equal(result.gpu.sssp.distances,
                         sssp::dijkstra(csr, 4).distances);
  EXPECT_FALSE(
      sssp::validate_distances(csr, 4, result.gpu.sssp.distances).has_value());
  EXPECT_GT(result.gpu.device_ms, 0.0);
  EXPECT_EQ(result.per_device_busy_ms.size(),
            static_cast<std::size_t>(GetParam()));
}

TEST_P(MultiGpuTest, MatchesDijkstraOnGrid) {
  const Csr csr = random_grid_graph(16, 117);
  core::MultiGpuOptions options;
  options.num_devices = GetParam();
  options.delta0 = 500.0;
  core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
  expect_distances_equal(engine.run(0).gpu.sssp.distances,
                         sssp::dijkstra(csr, 0).distances);
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MultiGpuTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(MultiGpu, SingleDeviceSendsNoMessages) {
  const Csr csr = random_powerlaw_graph(300, 2400, 119);
  core::MultiGpuOptions options;
  options.num_devices = 1;
  core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
  const auto result = engine.run(0);
  EXPECT_EQ(result.messages, 0u);
  EXPECT_DOUBLE_EQ(result.exchange_ms, 0.0);
}

TEST(MultiGpu, MessagesFlowAcrossThePartition) {
  const Csr csr = random_powerlaw_graph(300, 2400, 119);
  core::MultiGpuOptions options;
  options.num_devices = 4;
  core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
  const auto result = engine.run(0);
  EXPECT_GT(result.messages, 0u);
  EXPECT_GT(result.exchange_ms, 0.0);
  EXPECT_GT(result.exchange_rounds, 0u);
}

TEST(MultiGpu, OwnerOfPartitionsContiguously) {
  const Csr csr = random_powerlaw_graph(100, 800, 121);
  core::MultiGpuOptions options;
  options.num_devices = 4;
  core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
  EXPECT_EQ(engine.owner_of(0), 0);
  EXPECT_EQ(engine.owner_of(csr.num_vertices() - 1), 3);
  for (VertexId v = 1; v < csr.num_vertices(); ++v) {
    EXPECT_GE(engine.owner_of(v), engine.owner_of(v - 1));
  }
}

TEST(MultiGpu, SourceOnNonZeroDevice) {
  const Csr csr = random_powerlaw_graph(400, 3200, 123);
  core::MultiGpuOptions options;
  options.num_devices = 4;
  core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
  const VertexId source = csr.num_vertices() - 1;  // owned by device 3
  expect_distances_equal(engine.run(source).gpu.sssp.distances,
                         sssp::dijkstra(csr, source).distances);
}

// More devices than shard-sized slices: with 4 devices on 5 vertices the
// shard size is 2, so device 3 would start at vertex 6 > n. Trailing shards
// must come out empty, and distances stay exact from either end.
TEST(MultiGpu, MoreDevicesThanSlicesOnTinyPaths) {
  for (const VertexId n : {5u, 9u}) {
    graph::EdgeList edges;
    edges.num_vertices = n;
    for (VertexId v = 0; v + 1 < n; ++v) edges.add_edge(v, v + 1, 1.0 + v);
    graph::BuildOptions build;
    build.symmetrize = true;
    const Csr csr = graph::build_csr(edges, build);
    for (const int devices : {4, 8}) {
      SCOPED_TRACE(::testing::Message() << n << " vertices, " << devices
                                        << " devices");
      core::MultiGpuOptions options;
      options.num_devices = devices;
      core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
      for (const VertexId source : {VertexId{0}, n - 1}) {
        EXPECT_EQ(engine.run(source).gpu.sssp.distances,
                  sssp::dijkstra(csr, source).distances);
      }
    }
  }
}

// The result's counters sum every shard's simulator. From a source with no
// edges, every shard issues exactly three launches (init_distances,
// phase2_heavy, collect_bucket) and the source's shard one more
// (phase1_light).
TEST(MultiGpu, CountersSumEveryShard) {
  const VertexId n = 96;
  graph::EdgeList edges;
  edges.num_vertices = n;
  for (VertexId v = 1; v + 1 < n; ++v) edges.add_edge(v, v + 1, 1.0);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);
  for (const int devices : {1, 2, 3}) {
    SCOPED_TRACE(devices);
    core::MultiGpuOptions options;
    options.num_devices = devices;
    core::MultiGpuDeltaStepping engine(gpusim::test_device(), csr, options);
    const core::MultiGpuRunResult result = engine.run(0);
    EXPECT_EQ(result.gpu.sssp.distances, sssp::dijkstra(csr, 0).distances);
    EXPECT_EQ(result.gpu.counters.kernel_launches,
              3u * static_cast<std::uint64_t>(devices) + 1);
    EXPECT_GT(result.gpu.counters.inst_executed_global_stores, 0u);
  }
}

}  // namespace
}  // namespace rdbs

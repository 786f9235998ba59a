// Property sweep for the GPU engines across weight schemes, Δ0 choices,
// devices and graph families — every combination must match Dijkstra
// exactly and pass the independent certificate. This is the broad-coverage
// counterpart to test_core_engine's targeted cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <tuple>

#include "core/adds.hpp"
#include "core/rdbs.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/validate.hpp"
#include "test_util.hpp"

namespace rdbs::core {
namespace {

using graph::Csr;
using graph::VertexId;
using graph::Weight;
using graph::WeightScheme;

struct SweepCase {
  int graph_kind;      // 0 power-law, 1 grid, 2 kronecker, 3 small-world
  WeightScheme scheme;
  double delta_scale;  // Δ0 = delta_scale x (scheme's natural unit)
  bool t4;             // device: false = testdev, true = T4
};

// A readable, build-stable label (e.g. "kronecker_int1to1000_x0p25_testdev")
// for the test names and gtest's parameter printout; without it gtest prints
// the struct's bytes, padding included, so ctest names changed per build.
std::string sweep_case_label(const SweepCase& c) {
  static constexpr const char* kFamilies[] = {"powerlaw", "grid", "kronecker",
                                              "smallworld"};
  const char* scheme =
      c.scheme == WeightScheme::kUniformInt1To1000 ? "int1to1000"
      : c.scheme == WeightScheme::kUniformReal01   ? "real01"
                                                   : "unit";
  std::string scale = std::to_string(c.delta_scale);
  scale.erase(scale.find_last_not_of('0') + 1);  // "0.250000" -> "0.25"
  if (scale.back() == '.') scale.pop_back();
  std::replace(scale.begin(), scale.end(), '.', 'p');
  return std::string(kFamilies[c.graph_kind]) + "_" + scheme + "_x" + scale +
         (c.t4 ? "_t4" : "_testdev");
}

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << sweep_case_label(c);
}

Csr build_graph(const SweepCase& c) {
  graph::EdgeList edges;
  switch (c.graph_kind) {
    case 0: {
      graph::ChungLuParams params;
      params.num_vertices = 500;
      params.num_edges = 4000;
      params.seed = 201;
      edges = graph::generate_chung_lu(params);
      break;
    }
    case 1: {
      graph::GridParams params;
      params.width = params.height = 20;
      params.keep_probability = 0.9;
      params.seed = 203;
      edges = graph::generate_grid(params);
      break;
    }
    case 2: {
      graph::KroneckerParams params;
      params.scale = 9;
      params.edgefactor = 8;
      params.seed = 205;
      edges = graph::generate_kronecker(params);
      break;
    }
    default: {
      graph::SmallWorldParams params;
      params.num_vertices = 400;
      params.ring_degree = 6;
      params.rewire_probability = 0.2;
      params.seed = 207;
      edges = graph::generate_small_world(params);
      break;
    }
  }
  graph::assign_weights(edges, c.scheme, 209);
  graph::BuildOptions build;
  build.symmetrize = true;
  return graph::build_csr(edges, build);
}

Weight natural_delta(WeightScheme scheme) {
  switch (scheme) {
    case WeightScheme::kUniformInt1To1000: return 100.0;
    case WeightScheme::kUniformReal01: return 0.1;
    case WeightScheme::kUnit: return 1.0;
  }
  return 1.0;
}

class EngineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineSweep, RdbsMatchesDijkstra) {
  const SweepCase c = GetParam();
  const Csr csr = build_graph(c);
  GpuSsspOptions options;
  options.delta0 = natural_delta(c.scheme) * c.delta_scale;
  RdbsSolver solver(csr, c.t4 ? gpusim::tesla_t4() : gpusim::test_device(),
                    options);
  const VertexId source = 1;
  const auto result = solver.solve(source);
  const auto reference = sssp::dijkstra(csr, source);
  ASSERT_EQ(result.sssp.distances.size(), reference.distances.size());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_DOUBLE_EQ(result.sssp.distances[v], reference.distances[v])
        << "vertex " << v;
  }
  const auto verdict =
      sssp::validate_distances(csr, source, result.sssp.distances);
  EXPECT_FALSE(verdict.has_value()) << *verdict;
}

TEST_P(EngineSweep, AddsMatchesDijkstra) {
  const SweepCase c = GetParam();
  const Csr csr = build_graph(c);
  AddsOptions options;
  options.delta = natural_delta(c.scheme) * c.delta_scale;
  AddsLike adds(c.t4 ? gpusim::tesla_t4() : gpusim::test_device(), csr,
                options);
  const VertexId source = 1;
  const auto result = adds.run(source);
  const auto reference = sssp::dijkstra(csr, source);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_DOUBLE_EQ(result.sssp.distances[v], reference.distances[v])
        << "vertex " << v;
  }
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (int kind = 0; kind < 4; ++kind) {
    for (const auto scheme :
         {WeightScheme::kUniformInt1To1000, WeightScheme::kUniformReal01,
          WeightScheme::kUnit}) {
      for (const double scale : {0.25, 1.0, 16.0}) {
        cases.push_back({kind, scheme, scale, false});
      }
    }
    // One T4 configuration per family keeps runtime sane.
    cases.push_back({kind, WeightScheme::kUniformInt1To1000, 1.0, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Families, EngineSweep, ::testing::ValuesIn(sweep_cases()),
    [](const ::testing::TestParamInfo<SweepCase>& case_info) {
      return sweep_case_label(case_info.param);
    });

// Zero-weight edges inside a bucket must not hang phase 1 (they re-enqueue
// into the same bucket until fixpoint).
TEST(EngineEdgeCases, ZeroWeightEdges) {
  graph::EdgeList edges;
  edges.num_vertices = 6;
  edges.add_edge(0, 1, 0.0);
  edges.add_edge(1, 2, 0.0);
  edges.add_edge(2, 3, 5.0);
  edges.add_edge(3, 4, 0.0);
  edges.add_edge(4, 5, 2.0);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);
  GpuSsspOptions options;
  options.delta0 = 3.0;
  RdbsSolver solver(csr, gpusim::test_device(), options);
  const auto result = solver.solve(0);
  const auto reference = sssp::dijkstra(csr, 0);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(result.sssp.distances[v], reference.distances[v]);
  }
}

// Identical weights everywhere: every light relaxation lands exactly on a
// bucket boundary — exercises the [lo, hi) boundary handling.
TEST(EngineEdgeCases, WeightsEqualToDelta) {
  graph::EdgeList edges;
  edges.num_vertices = 8;
  for (VertexId v = 0; v + 1 < 8; ++v) edges.add_edge(v, v + 1, 10.0);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);
  GpuSsspOptions options;
  options.delta0 = 10.0;  // w == Δ: all edges are heavy
  RdbsSolver solver(csr, gpusim::test_device(), options);
  const auto result = solver.solve(0);
  for (VertexId v = 0; v < 8; ++v) {
    EXPECT_DOUBLE_EQ(result.sssp.distances[v], 10.0 * v);
  }
}

// A single vertex and a two-vertex graph: the degenerate ends.
TEST(EngineEdgeCases, TinyGraphs) {
  {
    graph::EdgeList edges;
    edges.num_vertices = 1;
    const Csr csr = graph::build_csr(edges);
    RdbsSolver solver(csr, gpusim::test_device());
    const auto result = solver.solve(0);
    EXPECT_DOUBLE_EQ(result.sssp.distances[0], 0.0);
  }
  {
    graph::EdgeList edges;
    edges.num_vertices = 2;
    edges.add_edge(0, 1, 7.5);
    graph::BuildOptions build;
    build.symmetrize = true;
    const Csr csr = graph::build_csr(edges, build);
    RdbsSolver solver(csr, gpusim::test_device());
    const auto result = solver.solve(1);
    EXPECT_DOUBLE_EQ(result.sssp.distances[0], 7.5);
    EXPECT_DOUBLE_EQ(result.sssp.distances[1], 0.0);
  }
}

// Parallel edges with different weights: builder dedup keeps the minimum,
// so every engine sees a simple graph and the distances use the cheapest.
TEST(EngineEdgeCases, ParallelEdgesUseMinimum) {
  graph::EdgeList edges;
  edges.num_vertices = 3;
  edges.add_edge(0, 1, 9.0);
  edges.add_edge(0, 1, 2.0);
  edges.add_edge(1, 2, 4.0);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);
  RdbsSolver solver(csr, gpusim::test_device());
  const auto result = solver.solve(0);
  EXPECT_DOUBLE_EQ(result.sssp.distances[1], 2.0);
  EXPECT_DOUBLE_EQ(result.sssp.distances[2], 6.0);
}

}  // namespace
}  // namespace rdbs::core

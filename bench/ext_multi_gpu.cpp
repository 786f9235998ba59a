// Extension: multi-GPU scaling (the paper's §7 future work).
//
// Strong scaling: a fixed Kronecker graph across 1/2/4/8 simulated V100s
// (1D partition, bucket-synchronous Δ-stepping, NVLink-class exchange).
// Reports makespan, compute vs exchange split, message volume and speedup
// over one device — the communication/computation tradeoff that decides
// whether multi-GPU SSSP pays off.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "bench_support/gbench.hpp"
#include "common/table.hpp"
#include "core/multi_gpu.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"

using namespace rdbs;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const int scale = static_cast<int>(args.get_int("scale", 16));
  const int edgefactor = static_cast<int>(args.get_int("edgefactor", 16));

  graph::KroneckerParams params;
  params.scale = scale;
  params.edgefactor = edgefactor;
  params.seed = config.seed;
  graph::EdgeList edges = graph::generate_kronecker(params);
  graph::assign_weights(edges, graph::WeightScheme::kUniformInt1To1000,
                        config.seed);
  graph::BuildOptions build;
  build.symmetrize = true;
  const graph::Csr csr = graph::build_csr(edges, build);
  const auto sources = bench::pick_sources(csr, config.num_sources,
                                           config.seed);
  const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);

  std::printf("== Extension: multi-GPU strong scaling (future work, §7) ==\n");
  std::printf("kronecker SCALE=%d edgefactor=%d: %u vertices, %llu directed "
              "edges; %zu sources, delta0=%.0f\n\n",
              scale, edgefactor, csr.num_vertices(),
              static_cast<unsigned long long>(csr.num_edges()),
              sources.size(), delta0);

  TextTable table({"devices", "makespan ms", "compute ms", "exchange ms",
                   "messages", "exchange rounds", "speedup", "efficiency"});
  std::vector<bench::GBenchRow> gbench_rows;
  double single_device_ms = 0;

  for (const int devices : {1, 2, 4, 8}) {
    core::MultiGpuOptions options;
    options.num_devices = devices;
    options.delta0 = delta0;
    core::MultiGpuDeltaStepping engine(gpusim::v100(), csr, options);

    double makespan = 0, compute = 0, exchange = 0;
    double messages = 0, rounds = 0;
    for (const auto s : sources) {
      const auto result = engine.run(s);
      makespan += result.gpu.device_ms;
      compute += result.compute_ms;
      exchange += result.exchange_ms;
      messages += static_cast<double>(result.messages);
      rounds += static_cast<double>(result.exchange_rounds);
    }
    const auto runs = static_cast<double>(sources.size());
    makespan /= runs;
    compute /= runs;
    exchange /= runs;
    messages /= runs;
    rounds /= runs;
    if (devices == 1) single_device_ms = makespan;

    const double speedup = single_device_ms / makespan;
    table.add_row({std::to_string(devices), format_fixed(makespan, 3),
                   format_fixed(compute, 3), format_fixed(exchange, 3),
                   format_count(static_cast<std::uint64_t>(messages)),
                   format_fixed(rounds, 1), format_speedup(speedup),
                   format_percent(speedup / devices, 1)});
    gbench_rows.push_back({"multigpu/devices" + std::to_string(devices),
                           makespan, 0});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);

  bench::run_gbench(args, gbench_rows);
  return 0;
}

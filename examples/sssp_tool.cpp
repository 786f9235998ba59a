// sssp_tool — command-line front end for the whole library.
//
// Load a graph (file or generator), run any of the implemented algorithms,
// and print distances, routes, per-bucket traces or an nvprof-style
// profile. Examples:
//
//   # shortest path on a DIMACS road file, with the route printed
//   ./sssp_tool --input=ny.gr --format=dimacs --source=0 --target=1234
//
//   # RDBS on a generated Kronecker graph with an nvprof-style profile
//   ./sssp_tool --dataset=k-n16-16 --algorithm=rdbs --profile
//
//   # compare algorithms on a surrogate dataset
//   ./sssp_tool --dataset=soc-PK --algorithm=all --sources=4
//
//   # batched multi-source run: 8 queries over 4 concurrent gpusim streams
//   ./sssp_tool --dataset=k-n16-16 --batch --sources=8 --batch-streams=4
//
//   # overload-safe serving (docs/serving.md): per-query deadline, EDF
//   # admission, circuit breakers, under injected faults
//   ./sssp_tool --dataset=k-n16-16 --batch --sources=16 --deadline-ms=5
//       --admission=edf --breaker=on --inject-faults=seed=7,launch=0.2
//
//   # streaming serve (docs/serving.md "Streaming"): a timed 2k-query
//   # Poisson schedule with priority-class deadlines, dispatched
//   # continuously on the simulated clock
//   ./sssp_tool --dataset=k-n16-16 --batch
//       --serve-stream=poisson:n=2000,rate=2,deadlines=1/4/-,seed=7
//
//   # result cache (docs/serving.md "Result cache"): exact-hit reuse,
//   # single-flight sharing and landmark warm starts on a Zipf workload
//   ./sssp_tool --dataset=k-n16-16 --batch --cache --landmarks=4
//       --serve-stream=poisson:n=2000,rate=2,zipf=1.3,universe=64
//
//   # checkpoint-resume under a fault storm (docs/serving.md
//   # "Checkpoint-resume & lane migration"): engines snapshot every 4
//   # boundaries, failed queries migrate to a surviving lane and resume,
//   # and shed/deadline-missed queries re-arrive closed-loop with backoff
//   ./sssp_tool --dataset=k-n16-16 --batch --checkpoint-interval=4
//       --serve-stream=poisson:n=500,rate=2,deadlines=2/8/-
//       --closed-loop=budget=2,backoff=0.5
//       --inject-faults=seed=7,launch=0.3
//
// A flag the chosen mode never reads (a typo, or e.g. --deadline-ms
// without --batch) is an error: the tool names it and exits 2 before the
// first solve.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/adds.hpp"
#include "core/legacy_gpu.hpp"
#include "core/query_batch.hpp"
#include "core/query_server.hpp"
#include "core/rdbs.hpp"
#include "core/sep_hybrid.hpp"
#include "core/traffic.hpp"
#include "gpusim/profiler.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/paths.hpp"
#include "sssp/pq_delta_star.hpp"
#include "sssp/validate.hpp"

using namespace rdbs;

namespace {

graph::Csr load_input(const CliArgs& args, const bench::HarnessConfig& config) {
  const std::string input = args.get_string("input", "");
  if (!input.empty()) {
    const std::string format = args.get_string("format", "edgelist");
    graph::EdgeList edges;
    if (format == "dimacs") {
      edges = graph::read_dimacs(input);
    } else if (format == "mtx") {
      edges = graph::read_matrix_market(input);
    } else {
      edges = graph::read_edge_list(input);
    }
    if (args.get_bool("assign-weights", false)) {
      graph::assign_weights(edges, graph::WeightScheme::kUniformInt1To1000,
                            config.seed);
    }
    graph::BuildOptions build;
    build.symmetrize = !args.get_bool("directed", false);
    return graph::build_csr(edges, build);
  }
  return bench::load_bench_graph(args.get_string("dataset", "soc-PK"),
                                 config);
}

struct RunOutcome {
  double ms = 0;
  sssp::SsspResult sssp;
  gpusim::Counters counters;
  bool simulated = true;
  std::string sanitizer_report;  // gsan hazards (empty = clean or off)
  core::RecoveryStats recovery;  // gfi fault/recovery tallies
  bool ok = true;                // false only with cpu_fallback disabled
};

RunOutcome run_algorithm(const std::string& algorithm, const graph::Csr& csr,
                         const gpusim::DeviceSpec& device,
                         graph::Weight delta0, graph::VertexId source,
                         gpusim::SanitizeMode sanitize,
                         const gpusim::FaultConfig& fault) {
  RunOutcome outcome;
  if (algorithm == "rdbs") {
    core::GpuSsspOptions options;
    options.delta0 = delta0;
    options.sanitize = sanitize;
    options.fault = fault;
    core::RdbsSolver solver(csr, device, options);
    auto result = solver.solve(source);
    outcome.ms = result.device_ms;
    outcome.sssp = std::move(result.sssp);
    outcome.counters = result.counters;
    outcome.sanitizer_report = std::move(result.sanitizer_report);
    outcome.recovery = result.recovery;
    outcome.ok = result.ok;
  } else if (algorithm == "adds") {
    core::AddsOptions options;
    options.delta = delta0;
    options.sanitize = sanitize;
    options.fault = fault;
    core::AddsLike adds(device, csr, options);
    auto result = adds.run(source);
    outcome.ms = result.device_ms;
    outcome.sssp = std::move(result.sssp);
    outcome.counters = result.counters;
    outcome.sanitizer_report = std::move(result.sanitizer_report);
    outcome.recovery = result.recovery;
    outcome.ok = result.ok;
  } else if (algorithm == "sep") {
    core::SepHybridOptions options;
    options.sanitize = sanitize;
    options.fault = fault;
    core::SepHybrid sep(device, csr, options);
    auto result = sep.run(source);
    outcome.ms = result.gpu.device_ms;
    outcome.sssp = std::move(result.gpu.sssp);
    outcome.counters = result.gpu.counters;
    outcome.sanitizer_report = std::move(result.gpu.sanitizer_report);
    outcome.recovery = result.gpu.recovery;
    outcome.ok = result.gpu.ok;
  } else if (algorithm == "hn07") {
    core::HarishNarayanan hn(device, csr, sanitize, fault);
    auto result = hn.run(source);
    outcome.ms = result.device_ms;
    outcome.sssp = std::move(result.sssp);
    outcome.counters = result.counters;
    outcome.sanitizer_report = std::move(result.sanitizer_report);
    outcome.recovery = result.recovery;
    outcome.ok = result.ok;
  } else if (algorithm == "dijkstra") {
    Timer timer;
    outcome.sssp = sssp::dijkstra(csr, source);
    outcome.ms = timer.milliseconds();
    outcome.simulated = false;
  } else if (algorithm == "bellman-ford") {
    Timer timer;
    outcome.sssp = sssp::bellman_ford(csr, source);
    outcome.ms = timer.milliseconds();
    outcome.simulated = false;
  } else if (algorithm == "pq-delta") {
    Timer timer;
    sssp::PqDeltaStarOptions options;
    options.delta_star = delta0;
    outcome.sssp = sssp::pq_delta_star(csr, source, options);
    outcome.ms = timer.milliseconds();
    outcome.simulated = false;
  } else {
    std::fprintf(stderr, "unknown --algorithm=%s (try rdbs, adds, sep, "
                         "hn07, dijkstra, bellman-ford, pq-delta, all)\n",
                 algorithm.c_str());
    std::exit(2);
  }
  return outcome;
}

// Shared --sanitize epilogue for the batch and serving modes: dump the gsan
// report plus a per-lane hazard tally (gsan v2 records carry the stream pair
// involved, so an operator can see WHICH lane misbehaved) and return the
// process exit code — 3 on hazards, 0 when clean or with the sanitizer off.
int report_sanitizer(core::QueryBatch& batch) {
  const gpusim::Sanitizer* san = batch.sim().sanitizer();
  if (san == nullptr) return 0;
  if (san->hazards().empty()) {
    std::printf("sanitize: clean (0 hazards) across %d lane(s)\n",
                batch.num_lanes());
    return 0;
  }
  std::fputs(san->report().c_str(), stderr);
  std::map<int, std::uint64_t> per_lane;
  for (const gpusim::HazardRecord& hazard : san->hazards()) {
    // Attribute the record to the lane that tripped it (the second stream
    // of a cross-stream pair); per-launch kinds predate lane tracking.
    const int lane =
        hazard.second_stream != gpusim::HazardRecord::kNoStream
            ? hazard.second_stream
            : hazard.first_stream;
    per_lane[lane] += hazard.count;
  }
  for (const auto& [lane, hits] : per_lane) {
    if (lane == gpusim::HazardRecord::kNoStream) {
      std::fprintf(stderr, "sanitize[lane ?]: %llu hazard(s)\n",
                   static_cast<unsigned long long>(hits));
    } else {
      std::fprintf(stderr, "sanitize[lane %d]: %llu hazard(s)\n", lane,
                   static_cast<unsigned long long>(hits));
    }
  }
  std::fprintf(stderr, "sanitize: %zu hazard record(s) detected\n",
               san->hazards().size());
  return 3;
}

// The recovery, resume and breaker lines both serving modes end with. The
// closed-loop counters only exist in stream mode with --closed-loop.
void print_serving_summary(const core::StreamResult& result, bool faults,
                           bool closed_loop) {
  if (faults) {
    std::printf(
        "recovery: %llu attempt(s), %llu fault(s) injected "
        "(%llu ECC-corrected), %llu retried, %.3f ms backoff%s\n",
        static_cast<unsigned long long>(result.recovery.attempts),
        static_cast<unsigned long long>(result.recovery.faults_injected),
        static_cast<unsigned long long>(result.recovery.ecc_corrected),
        static_cast<unsigned long long>(result.recovery.retries),
        result.recovery.backoff_ms,
        result.recovery.device_lost ? ", DEVICE LOST" : "");
  }
  if (result.resumed_queries > 0 || result.migrated_queries > 0 ||
      closed_loop) {
    std::printf("resume: %llu checkpoint-resumed, %llu migrated",
                static_cast<unsigned long long>(result.resumed_queries),
                static_cast<unsigned long long>(result.migrated_queries));
    if (closed_loop) {
      std::printf(
          "; closed loop: %llu retried arrival(s), %llu past budget",
          static_cast<unsigned long long>(result.retried_arrivals),
          static_cast<unsigned long long>(result.retry_exhausted));
    }
    std::printf("\n");
  }
  for (const core::BreakerEvent& event : result.breaker_events) {
    std::printf("breaker: lane %d -> %s at %.3f ms\n", event.lane,
                core::breaker_transition_name(event.transition),
                event.time_ms);
  }
}

// Called once every flag the chosen mode uses has been looked up: names any
// flag nothing read and returns false, so a typo never silently changes
// what was run.
bool all_flags_read(const CliArgs& args) {
  const std::vector<std::string> unread = args.unread();
  for (const std::string& name : unread) {
    std::fprintf(stderr, "unknown flag, or unused in this mode: --%s\n",
                 name.c_str());
  }
  return unread.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const gpusim::DeviceSpec device = bench::device_by_name(config.device);

  const graph::Csr csr = load_input(args, config);
  const graph::DegreeStats stats = graph::compute_degree_stats(csr);
  std::printf("graph: %u vertices, %llu directed edges, avg degree %.2f, "
              "max degree %llu\n",
              csr.num_vertices(),
              static_cast<unsigned long long>(csr.num_edges()),
              stats.average_degree,
              static_cast<unsigned long long>(stats.max_degree));

  const graph::Weight delta0 =
      args.has("delta") ? args.get_double("delta", 100.0)
                        : bench::empirical_delta0(csr, config.seed);
  const auto source = static_cast<graph::VertexId>(
      args.get_int("source", static_cast<std::int64_t>(
                                 bench::pick_sources(csr, 1, config.seed)[0])));
  const std::string algorithm = args.get_string("algorithm", "rdbs");
  const bool batch_mode = args.get_bool("batch", false);
  // Single-source mode only: route printing and the nvprof-style profile.
  const bool has_target = !batch_mode && args.has("target");
  const auto target =
      has_target ? static_cast<graph::VertexId>(args.get_int("target", 0)) : 0;
  const bool profile = !batch_mode && args.get_bool("profile", false);
  // --sanitize: run every simulated engine under gsan (docs/sanitizer.md);
  // hazard reports go to stderr and the exit code becomes 3.
  const gpusim::SanitizeMode sanitize = args.get_bool("sanitize", false)
                                            ? gpusim::SanitizeMode::kOn
                                            : gpusim::SanitizeMode::kOff;
  // --inject-faults=<spec>: deterministic fault injection + recovery (gfi;
  // docs/fault_injection.md), e.g. --inject-faults=seed=7,launch=0.05,flip=1e-4
  gpusim::FaultConfig fault;
  if (args.has("inject-faults")) {
    try {
      fault = gpusim::parse_fault_spec(args.get_string("inject-faults", ""));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --inject-faults spec: %s\n", e.what());
      return 2;
    }
  }

  if (batch_mode) {
    // Batched multi-source mode: --sources queries over --batch-streams
    // concurrent streams on one resident graph (rdbs or adds engines).
    const std::vector<graph::VertexId> sources =
        bench::pick_sources(csr, config.num_sources, config.seed);
    core::QueryBatchOptions bopts;
    bopts.streams = config.batch_streams;
    bopts.gpu.sanitize = sanitize;
    bopts.gpu.fault = fault;
    // --checkpoint-interval=N: engines snapshot their distance vector every
    // N bucket/round boundaries into a host-side checkpoint, enabling
    // resume-from-checkpoint retries and mid-query lane migration
    // (docs/serving.md "Checkpoint-resume & lane migration"). 0 = off.
    bopts.gpu.checkpoint_interval =
        static_cast<int>(args.get_int("checkpoint-interval", 0));
    // --retry-attempts / --cpu-fallback tune the per-query RetryPolicy.
    // With --cpu-fallback=off an exhausted query surfaces as kFailed — the
    // state a serving-layer migration picks up.
    if (args.has("retry-attempts")) {
      bopts.gpu.retry.max_attempts =
          static_cast<int>(args.get_int("retry-attempts", 3));
    }
    const std::string fallback = args.get_string("cpu-fallback", "on");
    if (fallback == "off") {
      bopts.gpu.retry.cpu_fallback = false;
    } else if (fallback != "on") {
      std::fprintf(stderr, "--cpu-fallback must be on or off, not %s\n",
                   fallback.c_str());
      return 2;
    }
    if (algorithm == "adds") {
      bopts.engine = core::BatchEngine::kAdds;
      bopts.adds_delta = delta0;
    } else if (algorithm == "rdbs") {
      bopts.engine = core::BatchEngine::kRdbs;
      bopts.gpu.delta0 = delta0;
    } else {
      std::fprintf(stderr,
                   "--batch supports --algorithm=rdbs or adds, not %s\n",
                   algorithm.c_str());
      return 2;
    }
    // Serving mode (docs/serving.md): any of --deadline-ms / --admission /
    // --breaker (or an explicit --serve) routes the batch through
    // core::QueryServer instead of the raw QueryBatch scheduler.
    // --serve-stream=SPEC switches to the continuous dispatcher over a
    // generated traffic schedule (core/traffic.hpp grammar); its deadlines
    // come from the spec and its order is class-then-deadline, so
    // --deadline-ms and --admission are burst-only (rejected as unread).
    const bool stream_mode = args.has("serve-stream");
    const bool serve = stream_mode || args.get_bool("serve", false) ||
                       args.has("deadline-ms") || args.has("admission") ||
                       args.has("breaker");
    if (serve) {
      core::QueryServerOptions sopts;
      sopts.batch = bopts;
      const std::string breaker = args.get_string("breaker", "on");
      if (breaker == "off") {
        sopts.breaker.enabled = false;
      } else if (breaker != "on") {
        std::fprintf(stderr, "--breaker must be on or off, not %s\n",
                     breaker.c_str());
        return 2;
      }
      const std::string migrate = args.get_string("migrate", "on");
      if (migrate == "off") {
        sopts.migrate = false;
      } else if (migrate != "on") {
        std::fprintf(stderr, "--migrate must be on or off, not %s\n",
                     migrate.c_str());
        return 2;
      }
      // --cache turns on the result cache (docs/serving.md "Result
      // cache"); --cache-capacity and --landmarks tune it and imply it.
      if (args.get_bool("cache", false) || args.has("cache-capacity") ||
          args.has("landmarks")) {
        sopts.cache.enabled = true;
        sopts.cache.capacity =
            static_cast<std::size_t>(args.get_int("cache-capacity", 64));
        sopts.cache.landmarks =
            static_cast<std::size_t>(args.get_int("landmarks", 4));
      }
      if (stream_mode) {
        // Streaming serve: queries arrive over simulated time per the
        // --serve-stream spec; the server dispatches continuously with a
        // bounded pending queue, EDF within priority class, starvation
        // aging and deadline-aware lane picking (docs/serving.md).
        core::TrafficSpec tspec;
        std::vector<core::TrafficQuery> schedule;
        try {
          tspec = core::parse_traffic_spec(
              args.get_string("serve-stream", ""));
          schedule = core::generate_traffic(tspec, csr.num_vertices());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bad --serve-stream spec: %s\n", e.what());
          return 2;
        }
        if (args.has("max-pending")) {
          sopts.max_pending =
              static_cast<std::size_t>(args.get_int("max-pending", 64));
        }
        if (args.has("aging-ms")) {
          sopts.aging_ms = args.get_double("aging-ms", 0.0);
        }
        const std::string policy = args.get_string("lane-policy", "fastest");
        if (policy == "earliest") {
          sopts.lane_policy = core::LanePolicy::kEarliestFree;
        } else if (policy != "fastest") {
          std::fprintf(stderr,
                       "--lane-policy must be fastest or earliest, not %s\n",
                       policy.c_str());
          return 2;
        }
        // --closed-loop=SPEC: shed/deadline-missed queries re-arrive with
        // deterministic jittered backoff (core/traffic.hpp grammar), e.g.
        // --closed-loop=budget=3,backoff=0.25,jitter=0.5,depth=12
        if (args.has("closed-loop")) {
          try {
            sopts.closed_loop = core::parse_closed_loop_spec(
                args.get_string("closed-loop", ""));
          } catch (const std::exception& e) {
            std::fprintf(stderr, "bad --closed-loop spec: %s\n", e.what());
            return 2;
          }
        }
        if (!all_flags_read(args)) return 2;
        core::QueryServer server(csr, device, sopts);
        const core::StreamResult result = server.run_stream(schedule);

        std::array<std::vector<double>, core::kNumTrafficClasses> sojourns;
        std::uint64_t promotions = 0;
        for (const core::StreamQueryStats& sq : result.stats) {
          promotions += static_cast<std::uint64_t>(sq.promotions);
          if (sq.query.status == core::QueryStatus::kOk ||
              sq.query.status == core::QueryStatus::kRecovered ||
              sq.query.status == core::QueryStatus::kCpuFallback ||
              sq.query.status == core::QueryStatus::kCacheHit) {
            sojourns[static_cast<std::size_t>(sq.cls)].push_back(
                sq.sojourn_ms);
          }
        }
        const auto percentile = [](std::vector<double>& values, double q) {
          if (values.empty()) return std::string("-");
          std::sort(values.begin(), values.end());
          const auto rank = static_cast<std::size_t>(
              q * static_cast<double>(values.size() - 1));
          return format_fixed(values[rank], 3);
        };
        TextTable table({"class", "offered", "completed", "shed", "missed",
                         "failed", "p50 ms", "p99 ms"});
        for (int c = 0; c < core::kNumTrafficClasses; ++c) {
          const core::ClassTally& tally =
              result.classes[static_cast<std::size_t>(c)];
          std::vector<double>& soj = sojourns[static_cast<std::size_t>(c)];
          table.add_row(
              {core::traffic_class_name(static_cast<core::TrafficClass>(c)),
               format_count(tally.offered), format_count(tally.completed),
               format_count(tally.shed), format_count(tally.missed),
               format_count(tally.failed), percentile(soj, 0.5),
               percentile(soj, 0.99)});
        }
        std::fputs(table.render().c_str(), stdout);
        const std::uint64_t done = result.ok_queries +
                                   result.recovered_queries +
                                   result.fallback_queries +
                                   result.cached_queries;
        std::printf(
            "\nstreamed %zu quer%s (%s arrivals) over %d lane(s) "
            "(%s-lane placement, breakers %s): "
            "%llu completed / %llu shed / %llu deadline / %llu failed; "
            "%llu hedged, %llu rerouted, %llu promotion(s); "
            "makespan %.3f ms (device %.3f ms)\n",
            schedule.size(), schedule.size() == 1 ? "y" : "ies",
            core::arrival_process_name(tspec.process),
            server.batch().num_lanes(), policy.c_str(),
            sopts.breaker.enabled ? "on" : "off",
            static_cast<unsigned long long>(done),
            static_cast<unsigned long long>(result.shed_queries),
            static_cast<unsigned long long>(result.deadline_queries),
            static_cast<unsigned long long>(result.failed_queries),
            static_cast<unsigned long long>(result.hedged_queries),
            static_cast<unsigned long long>(result.rerouted_queries),
            static_cast<unsigned long long>(promotions),
            result.makespan_ms, result.device_makespan_ms);
        if (sopts.cache.enabled) {
          const core::SourceRepetitionStats reps =
              core::source_repetition_stats(schedule);
          const core::ResultCacheStats& cs =
              server.result_cache()->stats();
          std::printf(
              "cache: %llu exact hit(s), %llu single-flight join(s), "
              "%llu warm start(s); %llu publish(es), %llu eviction(s); "
              "schedule repeats %.1f%% over %zu distinct source(s)\n",
              static_cast<unsigned long long>(result.cached_queries),
              static_cast<unsigned long long>(result.joined_queries),
              static_cast<unsigned long long>(result.warm_started_queries),
              static_cast<unsigned long long>(cs.publishes),
              static_cast<unsigned long long>(cs.evictions),
              100.0 * reps.repeat_fraction, reps.distinct_sources);
        }
        print_serving_summary(result, fault.enabled,
                              sopts.closed_loop.enabled);
        return report_sanitizer(server.batch());
      }
      sopts.default_deadline_ms = args.get_double(
          "deadline-ms", std::numeric_limits<double>::infinity());
      const std::string admission = args.get_string("admission", "fifo");
      if (admission == "edf") {
        sopts.admission = core::AdmissionPolicy::kEdf;
      } else if (admission != "fifo") {
        std::fprintf(stderr, "--admission must be fifo or edf, not %s\n",
                     admission.c_str());
        return 2;
      }
      if (!all_flags_read(args)) return 2;
      core::QueryServer server(csr, device, sopts);
      std::vector<core::ServerQuery> offered;
      offered.reserve(sources.size());
      for (const graph::VertexId s : sources) {
        core::ServerQuery q;
        q.source = s;  // deadline left unset -> options.default_deadline_ms
        offered.push_back(q);
      }
      const core::StreamResult result = server.run(offered);

      TextTable table({"source", "lane", "status", "latency ms", "finish ms",
                       "deadline ms", "overrun", "reached", "valid"});
      for (std::size_t i = 0; i < result.stats.size(); ++i) {
        const core::StreamQueryStats& sq = result.stats[i];
        const bool has_distances = !result.queries[i].sssp.distances.empty();
        const auto verdict =
            has_distances ? sssp::validate_distances(
                                csr, sq.query.source,
                                result.queries[i].sssp.distances)
                          : std::optional<std::string>{};
        table.add_row(
            {format_count(sq.query.source),
             sq.hedged ? std::string("host")
                       : format_count(static_cast<std::uint64_t>(
                             sq.query.stream)),
             core::query_status_name(sq.query.status),
             format_fixed(sq.query.device_ms, 3),
             format_fixed(sq.finish_ms, 3),
             std::isfinite(sq.deadline_ms) ? format_fixed(sq.deadline_ms, 3)
                                           : std::string("-"),
             format_count(sq.overrun_kernels),
             has_distances
                 ? format_count(result.queries[i].sssp.reached_count())
                 : std::string("-"),
             !has_distances ? std::string("-")
                            : (verdict ? "NO: " + *verdict
                                       : std::string("yes"))});
      }
      std::fputs(table.render().c_str(), stdout);
      std::printf(
          "\nserved %zu quer%s on %d lane(s) (%s, breakers %s): "
          "%llu ok / %llu recovered / %llu fallback (%llu hedged) / "
          "%llu deadline / %llu shed / %llu failed; makespan %.3f ms, "
          "%llu overrun kernel(s)\n",
          offered.size(), offered.size() == 1 ? "y" : "ies",
          server.batch().num_lanes(), admission.c_str(),
          sopts.breaker.enabled ? "on" : "off",
          static_cast<unsigned long long>(result.ok_queries),
          static_cast<unsigned long long>(result.recovered_queries),
          static_cast<unsigned long long>(result.fallback_queries),
          static_cast<unsigned long long>(result.hedged_queries),
          static_cast<unsigned long long>(result.deadline_queries),
          static_cast<unsigned long long>(result.shed_queries),
          static_cast<unsigned long long>(result.failed_queries),
          result.makespan_ms,
          static_cast<unsigned long long>(result.overrun_kernels));
      if (sopts.cache.enabled) {
        std::printf(
            "cache: %llu exact hit(s), %llu single-flight join(s), "
            "%llu warm start(s)\n",
            static_cast<unsigned long long>(result.cached_queries),
            static_cast<unsigned long long>(result.joined_queries),
            static_cast<unsigned long long>(result.warm_started_queries));
      }
      print_serving_summary(result, fault.enabled, /*closed_loop=*/false);
      return report_sanitizer(server.batch());
    }

    if (!all_flags_read(args)) return 2;
    core::QueryBatch batch(csr, device, bopts);
    const core::BatchResult result = batch.run(sources);

    // With --inject-faults the per-query rows surface the RetryPolicy's
    // work: final status, device attempts and simulated backoff charged.
    std::vector<std::string> headers = {"source",        "stream", "latency ms",
                                        "queue-wait ms", "MWIPS",  "reached",
                                        "valid"};
    if (fault.enabled) {
      headers.insert(headers.begin() + 2, "status");
      headers.push_back("attempts");
      headers.push_back("backoff ms");
    }
    TextTable table(std::move(headers));
    for (std::size_t i = 0; i < result.stats.size(); ++i) {
      const core::QueryStats& qs = result.stats[i];
      const auto verdict = sssp::validate_distances(
          csr, qs.source, result.queries[i].sssp.distances);
      std::vector<std::string> row = {
          format_count(qs.source),
          format_count(static_cast<std::uint64_t>(qs.stream)),
          format_fixed(qs.device_ms, 3),
          format_fixed(qs.queue_wait_ms, 3),
          format_fixed(qs.mwips, 1),
          format_count(result.queries[i].sssp.reached_count()),
          verdict ? "NO: " + *verdict : std::string("yes")};
      if (fault.enabled) {
        row.insert(row.begin() + 2, core::query_status_name(qs.status));
        row.push_back(format_count(result.queries[i].recovery.attempts));
        row.push_back(format_fixed(result.queries[i].recovery.backoff_ms, 3));
      }
      table.add_row(std::move(row));
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf(
        "\nbatch of %zu queries on %d stream(s): makespan %.3f ms, "
        "back-to-back %.3f ms (overlap speedup %.2fx), queue-wait %.3f ms, "
        "aggregate %.1f MWIPS\n",
        sources.size(), batch.streams(), result.makespan_ms,
        result.sum_latency_ms,
        result.makespan_ms <= 0 ? 0.0
                                : result.sum_latency_ms / result.makespan_ms,
        result.queue_wait_ms, result.aggregate_mwips);
    if (fault.enabled) {
      std::printf(
          "faults: %llu injected (%llu ECC-corrected), %llu retried over "
          "%llu attempt(s), %.3f ms backoff, "
          "%llu recovered / %llu CPU-fallback / %llu failed quer%s%s\n",
          static_cast<unsigned long long>(result.recovery.faults_injected),
          static_cast<unsigned long long>(result.recovery.ecc_corrected),
          static_cast<unsigned long long>(result.recovery.retries),
          static_cast<unsigned long long>(result.recovery.attempts),
          result.recovery.backoff_ms,
          static_cast<unsigned long long>(result.recovered_queries),
          static_cast<unsigned long long>(result.fallback_queries),
          static_cast<unsigned long long>(result.failed_queries),
          result.failed_queries == 1 ? "y" : "ies",
          result.recovery.device_lost ? ", DEVICE LOST" : "");
    }
    return report_sanitizer(batch);
  }

  const std::vector<std::string> algorithms =
      algorithm == "all"
          ? std::vector<std::string>{"dijkstra", "bellman-ford", "pq-delta",
                                     "hn07", "sep", "adds", "rdbs"}
          : std::vector<std::string>{algorithm};
  if (!all_flags_read(args)) return 2;

  TextTable table({"algorithm", "time ms", "kind", "reached", "updates",
                   "redundancy", "valid"});
  RunOutcome last;
  std::string hazards;
  for (const std::string& name : algorithms) {
    RunOutcome outcome =
        run_algorithm(name, csr, device, delta0, source, sanitize, fault);
    if (!outcome.sanitizer_report.empty()) {
      hazards += "--- " + name + " ---\n" + outcome.sanitizer_report;
    }
    if (fault.enabled && outcome.simulated) {
      std::printf(
          "faults[%s]: %llu injected (%llu ECC-corrected), %llu "
          "retr%s, %llu CPU fallback(s)%s%s\n",
          name.c_str(),
          static_cast<unsigned long long>(outcome.recovery.faults_injected),
          static_cast<unsigned long long>(outcome.recovery.ecc_corrected),
          static_cast<unsigned long long>(outcome.recovery.retries),
          outcome.recovery.retries == 1 ? "y" : "ies",
          static_cast<unsigned long long>(outcome.recovery.cpu_fallbacks),
          outcome.recovery.device_lost ? ", DEVICE LOST" : "",
          outcome.ok ? "" : ", FAILED (no distances)");
    }
    const auto verdict =
        sssp::validate_distances(csr, source, outcome.sssp.distances);
    table.add_row({name, format_fixed(outcome.ms, 3),
                   outcome.simulated ? "simulated GPU" : "host CPU",
                   format_count(outcome.sssp.reached_count()),
                   format_count(outcome.sssp.work.total_updates),
                   format_fixed(outcome.sssp.work.redundancy_ratio(), 2),
                   verdict ? "NO: " + *verdict : std::string("yes")});
    last = std::move(outcome);
  }
  std::fputs(table.render().c_str(), stdout);

  if (has_target) {
    const auto parents =
        sssp::build_parent_tree(csr, source, last.sssp.distances);
    const auto path = sssp::extract_path(parents, source, target);
    if (!path) {
      std::printf("\nno path from %u to %u\n", source, target);
    } else {
      std::printf("\nshortest path %u -> %u (cost %g, %zu hops):\n  ",
                  source, target, last.sssp.distances[target],
                  path->size() - 1);
      for (std::size_t i = 0; i < path->size(); ++i) {
        std::printf("%s%u", i ? " -> " : "", (*path)[i]);
        if (i % 10 == 9) std::printf("\n  ");
      }
      std::printf("\n");
    }
  }

  if (profile && last.simulated) {
    std::printf("\n%s", gpusim::profiler_report(last.counters, device).c_str());
  }
  if (sanitize == gpusim::SanitizeMode::kOn) {
    if (!hazards.empty()) {
      std::fputs(hazards.c_str(), stderr);
      std::fputs("sanitize: hazards detected\n", stderr);
      return 3;
    }
    std::printf("sanitize: clean (0 hazards)\n");
  }
  return 0;
}

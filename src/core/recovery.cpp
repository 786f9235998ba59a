#include "core/recovery.hpp"

#include <algorithm>

#include "sssp/dijkstra.hpp"

namespace rdbs::core {

AttemptFaults scan_attempt_faults(const gpusim::GpuSim& sim,
                                  std::size_t log_begin) {
  AttemptFaults scan;
  const std::vector<gpusim::GpuFault>& log = sim.fault_log();
  for (std::size_t i = log_begin; i < log.size(); ++i) {
    const gpusim::GpuFault& fault = log[i];
    scan.faults.push_back(fault);
    if (fault.correctable()) ++scan.ecc_corrected;
    if (fault.poisons()) scan.poisoned = true;
  }
  scan.device_lost = sim.device_lost();
  if (scan.device_lost) scan.poisoned = true;
  return scan;
}

GpuRunResult run_with_recovery(gpusim::GpuSim& sim, gpusim::StreamId stream,
                               const RetryPolicy& policy,
                               const graph::Csr& csr, graph::VertexId source,
                               const std::function<GpuRunResult()>& attempt,
                               const CancelToken* cancel,
                               const std::function<bool()>& resume) {
  if (!sim.fault_injector() && !sim.device_lost()) {
    // Fault injection off: single attempt, no scan, no extra bookkeeping.
    // The attempt itself honors the engine's cancel token, so a deadline
    // can still expire here — that is the only way this path returns
    // ok == false.
    GpuRunResult result = attempt();
    result.ok = !result.deadline_exceeded;
    result.recovery.attempts = 1;
    return result;
  }

  RecoveryStats recovery;
  std::vector<gpusim::GpuFault> faults;
  // Attempt metrics accumulate here: owning engines reset their simulator
  // clock per attempt, so the per-attempt deltas must be summed explicitly
  // (shared-sim engines measure deltas from their own attempt start, so
  // the sum is correct there too — backoff charged *between* attempts is
  // in no attempt's delta and is added once below).
  double spent_ms = 0;
  double spent_wait_ms = 0;
  gpusim::Counters spent_counters;
  double backoff = std::max(0.0, policy.backoff_ms);
  const int max_attempts = std::max(1, policy.max_attempts);

  bool cancel_expired = false;
  for (int attempt_no = 0; attempt_no < max_attempts; ++attempt_no) {
    if (sim.device_lost()) break;  // nothing to run on a dead device
    const std::size_t log_begin = sim.fault_log().size();
    GpuRunResult result = attempt();
    ++recovery.attempts;
    AttemptFaults scan = scan_attempt_faults(sim, log_begin);
    recovery.faults_injected += scan.faults.size();
    recovery.ecc_corrected += scan.ecc_corrected;
    recovery.device_lost = recovery.device_lost || scan.device_lost;
    faults.insert(faults.end(), scan.faults.begin(), scan.faults.end());

    if (result.deadline_exceeded) {
      // The deadline passed mid-attempt (possibly because a fault charged
      // the clock past it): terminal, even if the attempt is also
      // poisoned — there is no time left to retry or fall back in.
      result.device_ms += spent_ms;
      result.queue_wait_ms += spent_wait_ms;
      result.counters += spent_counters;
      result.ok = false;
      result.faults = std::move(faults);
      result.recovery = recovery;
      return result;
    }

    if (!scan.poisoned) {
      result.device_ms += spent_ms;
      result.queue_wait_ms += spent_wait_ms;
      result.counters += spent_counters;
      result.ok = true;
      result.faults = std::move(faults);
      result.recovery = recovery;
      return result;
    }

    spent_ms += result.device_ms;
    spent_wait_ms += result.queue_wait_ms;
    spent_counters += result.counters;
    if (scan.device_lost) break;  // no retry can succeed on a lost device
    if (cancel != nullptr && cancel->expired()) {
      // The poisoned attempt consumed the rest of the budget: don't charge
      // a backoff that cannot buy a retry anyway.
      cancel_expired = true;
      break;
    }
    if (attempt_no + 1 < max_attempts) {
      ++recovery.retries;
      // Exponential backoff, charged to the simulated clock (the host
      // would sleep here), plus re-upload of any read-only device data an
      // uncorrectable flip poisoned; mutable buffers are re-initialized by
      // the next attempt itself.
      sim.charge_host_ms(backoff, stream);
      spent_ms += backoff;
      recovery.backoff_ms += backoff;
      const std::uint64_t poisoned =
          sim.memory().poisoned_read_only_bytes();
      if (poisoned > 0) {
        sim.memcpy_h2d(poisoned, stream);
        spent_ms += sim.memcpy_ms(poisoned);
        sim.memory().clear_poison();
      }
      backoff *= policy.backoff_multiplier;
      // Checkpoint-resume: let the engine seed the next attempt from its
      // last good snapshot instead of rerunning cold. The re-seed H2D is
      // charged by the attempt's warm-start path; exactness follows from
      // the label-correcting argument (core/checkpoint.hpp).
      if (resume && resume()) ++recovery.resumed;
    }
  }

  // Unrecoverable on the device: degrade to the exact host reference, or
  // surface a typed failure — never wrong distances.
  recovery.device_lost = recovery.device_lost || sim.device_lost();
  GpuRunResult result;
  result.device_ms = spent_ms;
  result.queue_wait_ms = spent_wait_ms;
  result.counters = spent_counters;
  result.faults = std::move(faults);
  if (cancel_expired || (cancel != nullptr && cancel->expired())) {
    // Out of time: a CPU fallback computed now would arrive after the
    // deadline. The serving layer hedges to the host *before* dispatch when
    // that can still meet the deadline (docs/serving.md).
    result.ok = false;
    result.deadline_exceeded = true;
    result.recovery = recovery;
    return result;
  }
  if (policy.cpu_fallback) {
    result.sssp = sssp::dijkstra(csr, source);
    ++recovery.cpu_fallbacks;
    result.ok = true;
  } else {
    result.ok = false;
  }
  result.recovery = recovery;
  return result;
}

}  // namespace rdbs::core

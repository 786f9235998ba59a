#include "core/recovery.hpp"

#include <algorithm>
#include <stdexcept>

#include "sssp/dijkstra.hpp"

namespace rdbs::core {

void AttemptContext::attach(gpusim::GpuSim& sim, gpusim::StreamId stream) {
  devices_.push_back({&sim, stream});
}

bool AttemptContext::any_device_lost() const {
  for (const Device& d : devices_) {
    if (d.sim->device_lost()) return true;
  }
  return false;
}

bool AttemptContext::poisoned() const {
  for (const Device& d : devices_) {
    if (d.sim->device_lost()) return true;
    const std::vector<gpusim::GpuFault>& log = d.sim->fault_log();
    for (std::size_t i = d.log_begin; i < log.size(); ++i) {
      if (log[i].poisons()) return true;
    }
  }
  return false;
}

bool AttemptContext::cancelled() {
  if (!cancel_latched_ && cancel_ != nullptr && cancel_->expired()) {
    cancel_latched_ = true;
  }
  return cancel_latched_;
}

void AttemptContext::checkpoint_boundary(
    const gpusim::Buffer<graph::Distance>& dist, int interval) {
  if (interval <= 0) return;
  ++boundaries_;
  if (boundaries_ % static_cast<std::uint64_t>(interval) != 0) return;
  const Device& d = devices_.front();
  if (poisoned() || d.sim->buffer_poisoned(dist)) return;
  checkpoint_.bounds = dist.data();
  d.sim->memcpy_d2h(dist.size() * kCheckpointWordBytes, d.stream);
  checkpoint_.taken_ms = d.sim->stream_elapsed_ms(d.stream);
  checkpoint_.boundaries = boundaries_;
  ++checkpoint_.snapshots;
}

void AttemptContext::begin_attempt() {
  for (Device& d : devices_) d.log_begin = d.sim->fault_log().size();
  cancel_latched_ = false;
  boundaries_ = 0;
}

GpuRunResult run_with_recovery(
    AttemptContext& ctx, const RetryPolicy& policy, const graph::Csr& csr,
    graph::VertexId source,
    const std::function<GpuRunResult(AttemptContext&)>& attempt) {
  if (source >= csr.num_vertices()) {
    throw std::out_of_range("source vertex out of range");
  }
  // A stale snapshot must never seed a different query, and the resume
  // bounds are one-shot: a migrated run consumes them, and retries within
  // this run refresh them from the checkpoint.
  ctx.checkpoint_.clear();
  struct ConsumeResume {
    AttemptContext& ctx;
    ~ConsumeResume() { ctx.resume_.clear(); }
  } consume_resume{ctx};

  bool injecting = ctx.any_device_lost();
  for (const AttemptContext::Device& d : ctx.devices_) {
    injecting = injecting || d.sim->fault_injector() != nullptr;
  }
  if (!injecting) {
    // Fault injection off: single attempt, no scan, no extra bookkeeping.
    // The attempt itself honors the cancel token, so a deadline can still
    // expire here — that is the only way this path returns ok == false.
    ctx.begin_attempt();
    GpuRunResult result = attempt(ctx);
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
    if (ctx.any_device_lost()) break;  // nothing to run on a dead device
    ctx.begin_attempt();
    GpuRunResult result = attempt(ctx);
    ++recovery.attempts;
    // Every simulator's log tail, each fault tagged with its simulator.
    bool poisoned = false;
    for (std::size_t d = 0; d < ctx.devices_.size(); ++d) {
      const std::vector<gpusim::GpuFault>& log =
          ctx.devices_[d].sim->fault_log();
      for (std::size_t i = ctx.devices_[d].log_begin; i < log.size(); ++i) {
        gpusim::GpuFault fault = log[i];
        fault.device = static_cast<int>(d);
        if (fault.correctable()) ++recovery.ecc_corrected;
        poisoned = poisoned || fault.poisons();
        ++recovery.faults_injected;
        faults.push_back(std::move(fault));
      }
    }
    const bool lost = ctx.any_device_lost();
    recovery.device_lost = recovery.device_lost || lost;
    poisoned = poisoned || lost;

    // A deadline that passed mid-attempt (possibly because a fault charged
    // the clock past it) is terminal, even if the attempt is also poisoned:
    // there is no time left to retry or fall back in.
    if (result.deadline_exceeded || !poisoned) {
      result.device_ms += spent_ms;
      result.queue_wait_ms += spent_wait_ms;
      result.counters += spent_counters;
      result.ok = !result.deadline_exceeded;
      result.faults = std::move(faults);
      result.recovery = recovery;
      return result;
    }

    spent_ms += result.device_ms;
    spent_wait_ms += result.queue_wait_ms;
    spent_counters += result.counters;
    if (lost) break;  // no retry can succeed on a lost device
    if (ctx.cancel_ != nullptr && ctx.cancel_->expired()) {
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
      // the next attempt itself. Simulators re-upload concurrently, so the
      // run pays the largest upload.
      double reupload_ms = 0;
      for (const AttemptContext::Device& d : ctx.devices_) {
        d.sim->charge_host_ms(backoff, d.stream);
        const std::uint64_t poisoned_bytes =
            d.sim->memory().poisoned_read_only_bytes();
        if (poisoned_bytes > 0) {
          d.sim->memcpy_h2d(poisoned_bytes, d.stream);
          reupload_ms = std::max(reupload_ms, d.sim->memcpy_ms(poisoned_bytes));
          d.sim->memory().clear_poison();
        }
      }
      spent_ms += backoff;
      recovery.backoff_ms += backoff;
      spent_ms += reupload_ms;
      backoff *= policy.backoff_multiplier;
      // Checkpoint-resume: seed the next attempt from the last good
      // snapshot instead of rerunning cold. The re-seed H2D is charged by
      // the attempt's warm-start path; exactness follows from the
      // label-correcting argument (core/checkpoint.hpp).
      if (ctx.checkpoint_.valid()) {
        ctx.resume_ = ctx.checkpoint_.bounds;
        ++recovery.resumed;
      }
    }
  }

  // Unrecoverable on the device: degrade to the exact host reference, or
  // surface a typed failure — never wrong distances.
  recovery.device_lost = recovery.device_lost || ctx.any_device_lost();
  GpuRunResult result;
  result.device_ms = spent_ms;
  result.queue_wait_ms = spent_wait_ms;
  result.counters = spent_counters;
  result.faults = std::move(faults);
  if (cancel_expired || (ctx.cancel_ != nullptr && ctx.cancel_->expired())) {
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

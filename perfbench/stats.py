"""Metric arithmetic of the perfbench benchmark.

Turns the raw samples the harness writes (one JSON object per run) into the
end-to-end and per-layer metrics named in BENCHMARK.json. Kept apart from
run.py so that its rank, goodput and failure-share arithmetic has unit tests
(test_stats.py).
"""

import math
import statistics

# A tail percentile is reported only with at least this many samples beyond
# it, so that it is not one sample's value.
TAIL_SAMPLES_BEYOND = 10


def tail_percentile(n):
    """The highest whole percentile with TAIL_SAMPLES_BEYOND samples beyond it.

    With fewer than TAIL_SAMPLES_BEYOND + 1 samples no percentile qualifies
    and the tail is the maximum (percentile 100).
    """
    if n <= TAIL_SAMPLES_BEYOND:
        return 100
    return 100 * (n - TAIL_SAMPLES_BEYOND) // n


def nearest_rank(values, percentile):
    """Nearest-rank percentile: the smallest sample with at least
    `percentile` percent of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1]


def tail(values, percentile):
    """(value, samples, samples beyond) at a nearest-rank percentile."""
    value = nearest_rank(values, percentile)
    return value, len(values), sum(1 for v in values if v > value)


def median(values):
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def goodput(good, offered):
    """Share of offered operations completed exactly and by their deadline.

    Shed, missed and failed operations are simply not good: they count
    against goodput like any other miss.
    """
    if offered <= 0:
        raise ValueError("nothing offered")
    if not 0 <= good <= offered:
        raise ValueError("good must lie in [0, offered]")
    return good / offered


def attempted_and_failed(raw):
    """Operations attempted and failed over every measured pass.

    An operation is a solve or an offered query. The harness flags the
    failures of each operation's first run (an error, a gsan hazard, wrong
    distances, a completion after its deadline, a gsan run unlike the plain
    one). A pass covers the operations [begin, begin + ops) of the list; a
    repeat also counts the operations whose simulated result differs from
    their first run. A repeated operation repeats its first run's failure,
    so a pass fails its operations' first-run failures plus its differing
    operations, at most every operation it ran.
    """
    first_failed = raw["ops"]["failed"]
    attempted = failed = 0
    for p in raw["passes"]:
        begin, ops = p["begin"], p["ops"]
        repeated = sum(1 for f in first_failed[begin:begin + ops] if f)
        attempted += ops
        failed += min(ops, repeated + p["differing"])
    return attempted, failed


def share(part, whole):
    """part / whole, 0 when there is no whole (a layer not on the path)."""
    return part / whole if whole else 0.0


def select(raw_ops, column, where):
    """Values of `column` for the operations whose `where` flag is set."""
    return [v for v, keep in zip(raw_ops[column], raw_ops[where]) if keep]


def chunk_rates(passes, traced):
    """{chunk begin: median wall time per operation over its passes}.

    A pass is one timed run of the chunk of operations starting at `begin`;
    the median over a chunk's passes discards the ones a host-side
    disturbance slowed down.
    """
    rates = {}
    for p in passes:
        if p["traced"] == traced and p["ops"]:
            rates.setdefault(p["begin"], []).append(p["wall_ms"] / p["ops"])
    return {begin: median(r) for begin, r in rates.items()}


def host_ms_per_query(passes, traced, begins=None):
    """Median over chunks of each chunk's median wall time per operation.

    Every chunk counts once however often it was repeated, so the mix of
    operations averaged over does not depend on how fast the host repeats
    them. `begins` restricts the chunks (to compare traced with untraced).
    """
    rates = chunk_rates(passes, traced)
    if begins is not None:
        rates = {b: r for b, r in rates.items() if b in begins}
    if not rates:
        raise ValueError("no %s passes" % ("traced" if traced else "untraced"))
    return median(list(rates.values()))


def end_to_end(raw):
    """End-to-end metrics as {name: (value, unit)} plus their sample notes."""
    ops = raw["ops"]
    offered = len(ops["completed"])
    device = select(ops, "device_ms", "clean")
    sojourn = select(ops, "sojourn_ms", "completed")
    # The tail ranks are fixed per workload by the harness, so that every
    # run reports the same percentile: a rank recomputed per run would flip
    # between p98 and p99 as serve-mixed's completions cross 1,000.
    design = raw["tail_design_samples"]
    device_p = tail_percentile(design["device_ms"])
    sojourn_p = tail_percentile(design["sojourn_ms"])
    device_tail, device_n, device_beyond = tail(device, device_p)
    sojourn_tail, sojourn_n, sojourn_beyond = tail(sojourn, sojourn_p)
    metrics = {
        "setup_s": (median(raw["setup_s"]), "s"),
        "host_ms_per_query": (host_ms_per_query(raw["passes"], False), "ms"),
        "host_peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "device_ms_p50": (median(device), "ms"),
        "device_ms_tail": (device_tail, "ms"),
        "sojourn_ms_p50": (median(sojourn), "ms"),
        "sojourn_ms_tail": (sojourn_tail, "ms"),
        "goodput": (goodput(sum(1 for g in ops["good"] if g), offered),
                    "fraction"),
    }
    notes = {
        "device_ms_tail": {"percentile": device_p, "samples": device_n,
                           "beyond": device_beyond},
        "sojourn_ms_tail": {"percentile": sojourn_p, "samples": sojourn_n,
                            "beyond": sojourn_beyond},
        "setup_s": {"samples": len(raw["setup_s"])},
        "host_ms_per_query": {
            "passes": sum(1 for p in raw["passes"] if not p["traced"]),
            "chunks": len(chunk_rates(raw["passes"], False)),
            "queries": sum(p["ops"] for p in raw["passes"]
                           if not p["traced"])},
        "goodput": {"offered": offered},
    }
    return metrics, notes


def per_layer(raw):
    """Per-layer metrics as {name: (value, unit)}.

    Serving-layer metrics read 0 on the solve workloads, whose operations
    never pass through core/serving.
    """
    ops, sums, layer = raw["ops"], raw["sums"], raw["layer"]
    offered = len(ops["completed"])
    lane_ops = sums.get("lane_ops", 0)

    def per_op(key):
        return share(sums.get(key, 0), lane_ops)

    untraced = host_ms_per_query(raw["passes"], False)
    # Tracing overhead over the chunks that ran both ways.
    traced_begins = chunk_rates(raw["passes"], True).keys()
    traced = host_ms_per_query(raw["passes"], True)
    untraced_same = host_ms_per_query(raw["passes"], False, traced_begins)
    warp_per_offered = share(sums.get("warp_instructions", 0), offered)
    lane_done = [a and b for a, b in zip(ops["on_lane"], ops["completed"])]
    service = [v for v, keep in zip(ops["service_ms"], lane_done) if keep]
    pending = select(ops, "pending_ms", "on_lane")
    plain = raw["gsan_plain_ms"]
    workloads = (sums.get("workload_small", 0) + sums.get("workload_medium", 0)
                 + sums.get("workload_large", 0))

    def count(key):
        return float(layer.get(key, 0))

    return {
        "reorder.pro_ms": (layer["reorder.pro_ms"], "ms"),
        "engine.buckets": (per_op("buckets"), "count"),
        "engine.phase1_ms": (per_op("phase1_ms"), "ms"),
        "engine.phase23_ms": (per_op("phase23_ms"), "ms"),
        "engine.phase1_iterations": (per_op("phase1_iterations"), "count"),
        "engine.updates": (per_op("updates"), "count"),
        "engine.redundancy": (share(sums.get("updates", 0),
                                    sums.get("valid_updates", 0)), "ratio"),
        "engine.adwl_child_frac": (share(sums.get("workload_medium", 0)
                                         + sums.get("workload_large", 0),
                                         workloads), "fraction"),
        "gpusim.warp_instructions": (per_op("warp_instructions"), "count"),
        "gpusim.kernel_launches": (per_op("kernel_launches"), "count"),
        "gpusim.child_launches": (per_op("child_launches"), "count"),
        "gpusim.l1_hit_rate": (share(sums.get("l1_sector_hits", 0),
                                     sums.get("l1_sector_accesses", 0)),
                               "fraction"),
        "gpusim.l2_hit_rate": (share(sums.get("l2_sector_hits", 0),
                                     sums.get("l2_sector_accesses", 0)),
                               "fraction"),
        "gpusim.dram_bytes": (per_op("dram_bytes"), "bytes"),
        "gpusim.atomic_conflicts": (per_op("atomic_conflicts"), "count"),
        "gpusim.lane_efficiency": (share(sums.get("active_lane_ops", 0),
                                         sums.get("issued_lane_ops", 0)),
                                   "fraction"),
        "gpusim.host_ns_per_warp_instr": (share(untraced * 1e6,
                                                warp_per_offered), "ns"),
        "gsan.host_ms_per_query": (untraced - median(plain) if plain else 0.0,
                                   "ms"),
        "batch.service_ms_p50": (median(service) if service else 0.0, "ms"),
        "batch.kernel_queue_wait_ms": (share(sum(select(ops, "queue_wait_ms",
                                                        "on_lane")),
                                             lane_ops), "ms"),
        "batch.lane_busy_frac": (share(sums.get("device_ms", 0),
                                       count("batch.lanes")
                                       * count("batch.device_makespan_ms")),
                                 "fraction"),
        "server.pending_wait_ms_p50": (median(pending) if pending else 0.0,
                                       "ms"),
        "server.pending_wait_ms_tail": (tail(pending, tail_percentile(
            len(pending)))[0] if pending else 0.0, "ms"),
        "server.shed_frac": (share(count("server.shed"), offered), "fraction"),
        "server.miss_frac": (share(count("server.missed"), offered),
                             "fraction"),
        "server.retried_arrivals": (count("server.retried_arrivals"), "count"),
        "server.retry_exhausted": (count("server.retry_exhausted"), "count"),
        "server.breaker_trips": (count("server.breaker_trips"), "count"),
        "cache.hit_frac": (share(count("cache.hits"), count("cache.lookups")),
                           "fraction"),
        "cache.joins": (count("cache.joins"), "count"),
        "cache.warm_starts": (count("cache.warm_starts"), "count"),
        "cache.evictions": (count("cache.evictions"), "count"),
        "recovery.faults_injected": (count("recovery.faults_injected"),
                                     "count"),
        "recovery.retries": (count("recovery.retries"), "count"),
        "recovery.resumed": (count("recovery.resumed"), "count"),
        "recovery.migrated": (count("recovery.migrated"), "count"),
        "recovery.backoff_ms": (count("recovery.backoff_ms"), "ms"),
        "trace.overhead_ms_per_query": (traced - untraced_same, "ms"),
    }

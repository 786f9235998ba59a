#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload kron-solve --seed 1 --seconds 20 \\
        --trace 0

Builds the harness (perfbench/CMakeLists.txt) from the repository's sources
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs it
with OpenMP capped at the CPUs this process may use, checks its outputs and
prints two lines: a JSON stamp of host facts, sample counts and checks, then
the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced run. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("kron-solve", "road-solve", "serve-mixed", "kron-gsan")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir, jobs):
    """Configures and builds the harness; returns the binary's path."""
    if not os.path.isfile(os.path.join(root, "src", "core", "rdbs.hpp")):
        fail("no library sources under %s/src" % root)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", str(jobs)]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_harness")


def run_harness(binary, args, out_dir, threads):
    raw_path = os.path.join(out_dir, "raw-%s-%d-%d.json"
                            % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path]
    spans_path = None
    if args.trace:
        spans_path = os.path.join(out_dir, "spans-%s-%d.json"
                                  % (args.workload, args.seed))
        cmd += ["--spans", spans_path]
    env = dict(os.environ, OMP_NUM_THREADS=str(threads))
    try:
        proc = subprocess.run(cmd, env=env, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode)
    with open(raw_path) as f:
        return json.load(f), spans_path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    threads = len(os.sched_getaffinity(0))
    binary = build(root, build_dir, threads)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    raw, spans_path = run_harness(binary, args, out_dir, threads)

    e2e, notes = stats.end_to_end(raw)
    metrics = stats.per_layer(raw) if args.trace else e2e
    attempted, failed = stats.attempted_and_failed(raw)
    checks = raw["checks"]
    correct = failed == 0 and all(v == "ok" for v in checks.values())
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "host": dict(raw["host"], cpus_allowed=threads),
        "graph": raw["graph"],
        "samples": dict(notes, distinct_sources=raw["distinct_sources"]),
        "passes": raw["passes"],
        "checks": checks,
        "spans": spans_path and os.path.relpath(spans_path, root),
    }
    print(json.dumps({"perfbench": stamp}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

#!/usr/bin/env bash
# Tier-1 gate: build + full ctest, then the bench and CLI guards below.
#
#   ci/run_tier1.sh [--asan] [build-root]
#
# The default run builds one configuration (RelWithDebInfo, the default
# options) under build-root/tier1.
#
# With --asan, runs ONLY the asan configuration: -DRDBS_ASAN=ON
# (AddressSanitizer + UBSan, -fno-sanitize-recover=all) with the full
# ctest suite. CI runs it as its own job (analysis-asan) so the memory
# gate fails independently of the functional gate.
#
# All configurations build with -DRDBS_WERROR=ON (-Wall -Wextra -Wshadow
# -Werror): a new warning anywhere in the tree fails the gate.
#
# Environment:
#   RDBS_FUZZ_ITERS  differential-fuzz case count (default 50 in the test;
#                    the nightly workflow raises it — see
#                    .github/workflows/ci.yml). Exported to ctest, so it
#                    applies wherever test_fuzz_differential runs.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

ASAN_ONLY=0
if [[ "${1:-}" == "--asan" ]]; then
  ASAN_ONLY=1
  shift
fi

BUILD_ROOT="${1:-$ROOT/build-ci}"
JOBS="$(nproc 2>/dev/null || echo 2)"

run_config() {
  local name="$1"; shift
  local dir="$BUILD_ROOT/$name"
  echo "=== [$name] configure: $* ==="
  cmake -S "$ROOT" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRDBS_WERROR=ON "$@"
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$name] ctest ==="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

if [[ "$ASAN_ONLY" == 1 ]]; then
  # halt_on_error is the default with -fno-sanitize-recover=all; the
  # detect_* knobs widen coverage beyond the defaults.
  export ASAN_OPTIONS="detect_stack_use_after_return=1:strict_string_checks=1"
  export UBSAN_OPTIONS="print_stacktrace=1"
  run_config asan -DRDBS_ASAN=ON
  echo "tier-1 (asan): passed"
  exit 0
fi

echo "=== [tier1] fault-log reads stay in gpusim and the recovery loop ==="
# Poison checks, fault tagging and recovery bookkeeping live in one place:
# core::AttemptContext and run_with_recovery (src/core/recovery.*). Any
# other file under src/ that reads GpuSim::fault_log() is growing its own
# copy of that scaffolding; route it through the attempt context instead.
if grep -rnE 'fault_log[[:space:]]*\(' "$ROOT/src" |
    grep -v -e "^$ROOT/src/gpusim/" -e "^$ROOT/src/core/recovery\."; then
  echo "fault_log() called outside src/gpusim/ and src/core/recovery.*" >&2
  exit 1
fi

echo "=== [tier1] device CSR buffers are allocated in one place ==="
# Every engine uploads its graph through DeviceCsrBuffers::upload
# (src/core/device_graph.cpp), so all engines charge the same CSR layout and
# gsan reports name the same buffers. A "row_offsets", "adjacency" or
# "weights" buffer name anywhere else under src/ is a hand-copied upload.
if grep -rnE '"(row_offsets|adjacency|weights)"' "$ROOT/src" |
    grep -v "^$ROOT/src/core/device_graph\.cpp:"; then
  echo "CSR buffer allocated outside src/core/device_graph.cpp" >&2
  exit 1
fi

echo "=== [tier1] engines run on the one engine frame ==="
# Simulator setup and attempt metering live in one place: the device record
# (core::EngineDevice, src/core/device_graph.*) applies gsan and gfi to an
# owned simulator, and run_with_recovery (src/core/recovery.*) resets it
# before each attempt and reads every device's clock, counters and gsan
# report after it. Any other file under src/core/ that resets a simulator,
# enables gsan or gfi, or reaches for a simulator's gsan state (the
# sanitizer() accessor, the only way to read its report) is growing its own
# copy of that frame.
if grep -rnE '(reset_all|enable_sanitizer|enable_fault_injection)[[:space:]]*\(|[.>]sanitizer[[:space:]]*\([[:space:]]*\)' \
    "$ROOT/src/core" |
    grep -v -e "^$ROOT/src/core/device_graph\." -e "^$ROOT/src/core/recovery\."; then
  echo "engine frame call outside src/core/device_graph.* and recovery.*" >&2
  exit 1
fi

run_config tier1

echo "=== [tier1] perfbench build and unit tests ==="
# The repo benchmark compiles the library sources with its own CMake project.
# Configure and build it the way perfbench/run.py does (Release), so a
# library change that breaks the benchmark build fails here, not when the
# benchmark runs; then run its metric-arithmetic unit tests.
cmake -S "$ROOT/perfbench" -B "$BUILD_ROOT/perfbench" \
  -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_ROOT/perfbench" -j "$JOBS"
PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s "$ROOT/perfbench" \
  -p 'test_*.py'

echo "=== [tier1] result-cache latency guard ==="
# The cache sweep alone (hot-Zipf schedule, cache on vs off): exact hits
# must be oracle-exact and bit-identical across two identical runs, and the
# cache-hit p50 sojourn must beat the cold p50 — a cache that stops
# hitting, or hits slower than solving, fails the gate here before it
# reaches the nightly full bench.
"$BUILD_ROOT/tier1/bench/server_tail_latency" --cache --json /dev/null

echo "=== [tier1] server bench vs BENCH_server.json ==="
# Every row of the full bench is on the simulated clock, so a fresh run must
# reproduce the committed BENCH_server.json exactly: a change to any serving
# decision fails here instead of silently drifting the checked-in numbers.
SERVER_JSON="$(mktemp)"
trap 'rm -f "$SERVER_JSON"' EXIT
"$BUILD_ROOT/tier1/bench/server_tail_latency" --json "$SERVER_JSON" > /dev/null
if ! python3 -c 'import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:])
sys.exit(a != b)' "$ROOT/BENCH_server.json" "$SERVER_JSON"; then
  diff -u "$ROOT/BENCH_server.json" "$SERVER_JSON" || true
  echo "bench/server_tail_latency output differs from BENCH_server.json" >&2
  exit 1
fi

echo "=== [tier1] batch bench vs BENCH_batch.json ==="
# The batch bench is deterministic too, and it is the path that runs every
# lane on the shared form of the device record: a fresh run must reproduce
# the committed BENCH_batch.json exactly.
BATCH_JSON="$(mktemp)"
trap 'rm -f "$SERVER_JSON" "$BATCH_JSON"' EXIT
"$BUILD_ROOT/tier1/bench/batch_throughput" --json "$BATCH_JSON" > /dev/null
if ! python3 -c 'import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:])
sys.exit(a != b)' "$ROOT/BENCH_batch.json" "$BATCH_JSON"; then
  diff -u "$ROOT/BENCH_batch.json" "$BATCH_JSON" || true
  echo "bench/batch_throughput output differs from BENCH_batch.json" >&2
  exit 1
fi

echo "=== [tier1] fault-injection CLI smoke ==="
# The full recovery path end to end through the CLI: deterministic faults,
# checkpoint-resume inside retries, mid-query lane migration, and a
# closed-loop client on a streamed batch. Guards the flag plumbing
# (sssp_tool is how the docs tell people to reproduce fault runs; it exits
# 2 on any flag it does not read) and exits non-zero if the served stream
# violates its own invariants.
"$BUILD_ROOT/tier1/examples/sssp_tool" --dataset=k-n12-8 --batch \
  --batch-streams=4 --checkpoint-interval=2 --retry-attempts=2 \
  --serve-stream=poisson:n=200,rate=2,deadlines=2/8/-,seed=7 \
  --closed-loop=budget=2,backoff=0.5,depth=8 \
  --inject-faults=seed=7,launch=0.3,max=50 > /dev/null

echo "tier-1: passed"

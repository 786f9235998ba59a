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

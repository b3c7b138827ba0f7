#!/usr/bin/env bash
# Performance benchmarks: builds the Release preset and runs
#   - bench/perf_compile over the full workload suite, writing the
#     measured pass-1 + partition-search timings to BENCH_compile.json
#     (see docs/performance.md for what the numbers mean);
#   - bench/perf_interp, bench/fig14_kway and bench/perf_oracle, in that
#     order, each merging its block ("interpreter", "kway", "oracle") into
#     the same file;
#   - bench/perf_serve over a generated 1000-program batch, writing the
#     batch-service throughput (1/4/8 workers, cold vs warm cache) to
#     BENCH_serve.json (see docs/serving.md).
#
#   ./scripts/bench.sh                 # full run, both BENCH_*.json
#   ./scripts/bench.sh --quick         # small inputs, 1 repeat,
#                                      # 100-program serve batch
#   ./scripts/bench.sh --out=foo.json  # alternate compile-side output
#
# --repeat=N is passed through to perf_compile.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== [release] configure"
cmake --preset release
echo "== [release] build perf_compile perf_interp fig14_kway perf_oracle" \
  "perf_serve"
cmake --build --preset release -j "$JOBS" --target perf_compile perf_interp \
  fig14_kway perf_oracle perf_serve

OUT_PATH="$PWD/BENCH_compile.json"
QUICK=0
ARGS=()
for arg in "$@"; do
  case "$arg" in
    --out=*) OUT_PATH="${arg#--out=}" ;;
    --quick) QUICK=1; ARGS+=("$arg") ;;
    *) ARGS+=("$arg") ;;
  esac
done
QUICK_ARGS=()
if [ "$QUICK" -eq 1 ]; then
  QUICK_ARGS+=("--quick")
fi

# perf_compile rewrites the file from scratch; the other three merge
# their block into it, so they must run after it.
echo "== perf_compile ${ARGS[*]:-} --out=$OUT_PATH"
./build-release/bench/perf_compile "${ARGS[@]:+${ARGS[@]}}" \
  "--out=$OUT_PATH"

# The JSON carries an "observability" block: the obs configuration's
# pass-1 overhead against seq, plus the aggregate counter/span stats of
# the traced compiles (docs/observability.md explains how to read it).
if grep -q '"observability"' "$OUT_PATH"; then
  echo "== observability stats block recorded in $OUT_PATH"
else
  echo "== ERROR: $OUT_PATH is missing the observability stats block" >&2
  exit 1
fi

# Interpreter throughput: the decoded engine against the reference
# switch engine. The binary exits nonzero itself when the record streams
# diverge or the decoded engine drops under 2x the reference.
echo "== perf_interp ${QUICK_ARGS[*]:-} --out=$OUT_PATH"
./build-release/bench/perf_interp "${QUICK_ARGS[@]:+${QUICK_ARGS[@]}}" \
  "--out=$OUT_PATH"
grep -q '"interpreter"' "$OUT_PATH" || {
  echo "== ERROR: $OUT_PATH is missing the interpreter block" >&2
  exit 1
}

# K-way core sweep: bench/fig14_kway compiles and simulates every
# workload at 1, 2, 4 and 8 cores. The binary exits nonzero itself when
# the generalized engine is not byte-identical to the two-core reference
# at Cores=2 or no workload scales monotonically from 2 to 4 cores, and
# the block's own gate flags are double-checked here.
echo "== fig14_kway ${QUICK_ARGS[*]:-} --out=$OUT_PATH"
./build-release/bench/fig14_kway "${QUICK_ARGS[@]:+${QUICK_ARGS[@]}}" \
  "--out=$OUT_PATH"
grep -q '"reports_identical": true, "any_speedup_monotone_2_to_4": true' \
  "$OUT_PATH" || {
  echo "== ERROR: $OUT_PATH kway block failed its gates" >&2
  exit 1
}

# Measured dependence-oracle quality: for every workload bench/perf_oracle
# profiles a dependence artifact, compiles three ways (static-only oracle,
# in-run default, measured artifact) and simulates each against the
# sequential baseline. The binary exits nonzero itself when the
# measurements change no chosen partition vs static-only, the artifact
# regresses any workload vs the in-run default, or any simulation's
# architectural results diverge; the summary gates are double-checked
# here (docs/profiling.md explains the three configs).
echo "== perf_oracle ${QUICK_ARGS[*]:-} --out=$OUT_PATH"
./build-release/bench/perf_oracle "${QUICK_ARGS[@]:+${QUICK_ARGS[@]}}" \
  "--out=$OUT_PATH"
grep -q '"no_regression_vs_inrun": true, "checksums_match": true' \
  "$OUT_PATH" || {
  echo "== ERROR: $OUT_PATH oracle block failed its gates" >&2
  exit 1
}
echo "== interpreter, kway and oracle blocks recorded in $OUT_PATH"

# Batch-service throughput. perf_serve exits nonzero itself when any
# configuration's reports diverge from the single-threaded cold reference
# or the warm pass is not fully cache-served, so only the scaling claims
# need checking here.
SERVE_OUT="$PWD/BENCH_serve.json"
if [ "$QUICK" -eq 1 ]; then
  SERVE_OUT="$PWD/build-release/BENCH_serve_quick.json"
fi
echo "== perf_serve ${QUICK_ARGS[*]:-} --out=$SERVE_OUT"
./build-release/bench/perf_serve "${QUICK_ARGS[@]:+${QUICK_ARGS[@]}}" \
  "--out=$SERVE_OUT"

grep -q '"reports_identical": true' "$SERVE_OUT" || {
  echo "== ERROR: $SERVE_OUT reports are not byte-identical" >&2
  exit 1
}
grep -q '"warm_served_from_cache": true' "$SERVE_OUT" || {
  echo "== ERROR: $SERVE_OUT warm pass was not served from cache" >&2
  exit 1
}

# Worker scaling is a physical claim about the host: on a multi-core
# machine Jobs=8 cold throughput must be at least 2x Jobs=1, but on a
# single-core container that target is unattainable and asserting it
# would only reward dishonest measurement — so gate it on core count and
# record the observed ratio either way (it is in the JSON summary).
SPEEDUP="$(sed -n 's/.*"cold_speedup_jobs8_vs_jobs1": \([0-9.]*\).*/\1/p' \
  "$SERVE_OUT")"
CORES="$(nproc 2>/dev/null || echo 1)"
if [ "$CORES" -ge 2 ]; then
  awk -v s="$SPEEDUP" 'BEGIN { exit (s >= 2.0) ? 0 : 1 }' || {
    echo "== ERROR: cold Jobs=8 speedup $SPEEDUP < 2x on a $CORES-core host" >&2
    exit 1
  }
  echo "== serve scaling: cold Jobs=8 speedup ${SPEEDUP}x (>= 2x, $CORES cores)"
else
  echo "== serve scaling: cold Jobs=8 speedup ${SPEEDUP}x on a single-core" \
       "host (>= 2x assertion skipped; see hardware_concurrency in the JSON)"
fi

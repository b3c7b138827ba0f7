#!/usr/bin/env bash
# One-command local gate: configure, build and test the requested presets.
#
#   ./scripts/check.sh              # default + asan-ubsan
#   ./scripts/check.sh default      # a single preset
#   ./scripts/check.sh asan-ubsan
#
# Each preset builds into its own directory (build/, build-asan/), so the
# sanitizer run never dirties the ordinary build tree. Per preset the
# gate is: the tier1-labelled test suite (ctest -L tier1, which includes
# the fuzzing self-check), then a 200-program differential fuzzing smoke
# through the full oracle set (see docs/testing.md). Then the release
# preset is built into build-release/, so a warning that only -O3 raises
# cannot break the benchmark build unnoticed, and its golden digests and
# planner equivalence tests are checked there: the executors inline their
# step sinks into the interpreter, perfbench times the cost model and
# search at -O3, and -O3 is the build most likely to diverge.
# Last, perfbench's standalone project is built into build-perfbench/.

set -euo pipefail
cd "$(dirname "$0")/.."

PRESETS=("$@")
if [ ${#PRESETS[@]} -eq 0 ]; then
  PRESETS=(default asan-ubsan)
fi

JOBS="$(nproc 2>/dev/null || echo 4)"

builddir_for() {
  case "$1" in
    default) echo build ;;
    release) echo build-release ;;
    asan-ubsan) echo build-asan ;;
    *) echo "build-$1" ;;
  esac
}

for preset in "${PRESETS[@]}"; do
  builddir="$(builddir_for "$preset")"
  echo "== [$preset] configure"
  cmake --preset "$preset"
  echo "== [$preset] build"
  cmake --build --preset "$preset" -j "$JOBS"
  echo "== [$preset] test (tier1)"
  ctest --preset "$preset" -L tier1
  echo "== [$preset] sptfuzz smoke (200 programs)"
  "./$builddir/tools/sptfuzz" --smoke --programs 200 --seed 1 \
    --corpus tests/corpus --out "$builddir/fuzz-repros"
  # Batch-service smoke: the deterministic selfcheck plus a small chaos
  # batch over the seed corpus with --verify (non-faulted reports must be
  # byte-identical to a fault-free single-worker reference).
  echo "== [$preset] sptserve selfcheck + chaos smoke"
  "./$builddir/tools/sptserve" --selfcheck --seed 1
  # Dependence-profile artifact smoke: determinism, round-trip with
  # corruption rejection, drift separation of shifted input
  # distributions, and the compile-cache/module-handshake integration
  # (see docs/profiling.md).
  echo "== [$preset] sptprof selfcheck (dependence-profile artifacts)"
  "./$builddir/tools/sptprof" --selfcheck
  "./$builddir/tools/sptserve" --batch --corpus tests/corpus \
    --programs 50 --jobs 4 --chaos 0.3 --seed 1 --verify
  # Interpreter decode differential smoke: the lockstep record-stream
  # walk between the decoded (threaded, fused) engine and its reference,
  # a loop of referenceStep (the tree-walking switch in
  # src/testing/ReferenceInterp), plus perf_interp --quick, which exits
  # nonzero when either the record streams diverge or the decoded engine
  # drops under the 2x aggregate throughput gate against the reference
  # loop. Under sanitizers this doubles as a memory-safety pass over the
  # computed-goto dispatch loop.
  echo "== [$preset] interp decode differential smoke"
  "./$builddir/tests/interp_decode_test"
  "./$builddir/bench/perf_interp" --quick \
    --out="$builddir/BENCH_interp_quick.json"
  # K-way differential smoke: the N-core engine against the two-core
  # reference engine kept as a test oracle in src/testing (byte-identity
  # at Cores=2, architectural equality and in-order commit accounting at
  # 4 and 8 cores), then a quick cores=1,2,4,8 sweep whose exit code
  # gates both the byte-identity and the 2->4 scaling claim (see
  # docs/simulation.md).
  echo "== [$preset] k-way differential smoke"
  "./$builddir/tests/kway_sim_test"
  "./$builddir/bench/fig14_kway" --quick \
    --out="$builddir/BENCH_kway_quick.json"
done

# Smoke-run the compile-time benchmark (small stress graphs, one repeat)
# from the default build: it fails when the seq and obs pass-1
# configurations stop rendering byte-identical reports, or when the
# stress sweep's searches stop being bit-identical to the reference
# search in src/testing, which the full test suite cannot see at
# benchmark scale. Full measurements come from scripts/bench.sh.
if [[ " ${PRESETS[*]} " == *" default "* ]]; then
  echo "== [default] perf_compile --quick"
  ./build/bench/perf_compile --quick --out=build/BENCH_compile_quick.json

  # Measured dependence-profile smoke (about 10 s): perf_oracle exits
  # nonzero when compiling with a workload's artifact simulates slower
  # than profiling in-run on any workload, when the measurements change
  # no workload's partitioning, or when any simulation's architectural
  # results diverge from the sequential run.
  echo "== [default] perf_oracle --quick"
  ./build/bench/perf_oracle --quick --out=build/BENCH_oracle_quick.json

  # Trace-enabled smoke: compile the workload suite (gzip et al.) with
  # observability on, then validate both artifacts — the Chrome trace
  # must parse and nest, the stats dump must be well-formed JSON and
  # carry the branch-and-bound prune and incremental-cost-scratch
  # counters (see docs/observability.md for the catalogue).
  echo "== [default] spttrace + tracecheck (observability smoke)"
  ./build/tools/spttrace --json --trace=build/spt_trace.json \
    --stats=build/spt_stats.json
  ./build/tools/tracecheck build/spt_trace.json
  ./build/tools/tracecheck --stats build/spt_stats.json
  grep -q '"partition\.prune\.' build/spt_stats.json
  grep -q '"cost\.scratch\.' build/spt_stats.json
fi

# Release (-O3) build guard: the tree builds with -Werror, and GCC raises
# some warnings (e.g. a -Wrestrict false positive) only at -O3, which no
# tested preset uses. The golden digests pin every simulator and profiler
# result, the reports of 200 generated programs and every loop dependence
# graph of the workloads and those programs, so they also catch an
# -O3-only divergence of the inlined sinks, the graph builder or the
# planner; the value-watch test holds stage B's graph-free watch set equal
# to the built graphs' violation candidates, and the cost-model and
# partition tests hold the shipped planner bit-identical to its
# references in src/testing, at the optimization level perfbench times.
# The IR test pins every verifier message, whose formatting the verifier
# defers until a check fails, and the observability test pins the
# driver's graph builds, plan reuses and value-watch span, which count
# what the compile's analysis and plan caches reuse. The interpreter tests
# hold the decoded engine to its reference at every step budget and sink
# stop, and the timing tests its record stream through the timing model:
# -O3 inlines the engine's handlers and exits hardest. The canonical
# golden pins the request front end's reprint and diagnostics, and the
# language tests its lexer edge cases and nesting limits: the cursor
# lexer's bounds and the parser's lookahead ring are what -O3 reorders.
if [[ " ${PRESETS[*]} " != *" release "* ]]; then
  echo "== [release] configure + build"
  cmake --preset release
  cmake --build --preset release -j "$JOBS"
  echo "== [release] golden digests and planner equivalence"
  ./build-release/tests/sim_golden_test
  ./build-release/tests/profile_golden_test
  ./build-release/tests/report_golden_test
  ./build-release/tests/depgraph_golden_test
  ./build-release/tests/depgraph_watch_test
  ./build-release/tests/cost_incremental_test
  ./build-release/tests/partition_test
  ./build-release/tests/partition_kway_test
  ./build-release/tests/ir_test
  ./build-release/tests/obs_test
  ./build-release/tests/interp_decode_test
  ./build-release/tests/interp_test
  ./build-release/tests/timing_test
  ./build-release/tests/canonical_golden_test
  ./build-release/tests/lang_test
fi

# The end-to-end benchmark is a standalone CMake project that builds
# ../src with its own flags, targets and link line
# (perfbench/CMakeLists.txt), so a source-list or library change that
# breaks it would otherwise show up only when the benchmark runs. Build
# only; perfbench/run.py times it.
echo "== [perfbench] configure + build"
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench -j "$JOBS" --target perfbench

echo "== all presets passed: ${PRESETS[*]}"

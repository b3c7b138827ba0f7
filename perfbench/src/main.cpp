//===- perfbench/src/main.cpp - End-to-end benchmark entry point ----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Usage: perfbench --workload suite|serve_cold|serve_warm --seed N
//                  --seconds S --trace 0|1
//
// Prints human-readable tables, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. See
// perfbench/README.md for the metric definitions.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

void perfbench::reportLayerMetrics(const LayerMetrics &L, Result &R) {
  R.metric("lang.lower_s", L.LowerS, "s");
  R.metric("lang.canonicalize_s", L.CanonicalizeS, "s");
  R.metric("interp.minstrs_per_s", L.InterpMinstrsPerS, "M/s");
  R.metric("profile.run_s", L.ProfileS, "s");
  R.metric("profile.msteps_per_s", L.ProfileMstepsPerS, "M/s");
  R.metric("profile.slowdown_vs_interp", L.ProfileSlowdown, "ratio",
           L.ProfileSlowdownBase);
  R.metric("driver.stageA_unroll_s", L.StageA, "s");
  R.metric("driver.stageB_profile_s", L.StageB, "s");
  R.metric("driver.stageC_svp_s", L.StageC, "s");
  R.metric("driver.pass1_s", L.Pass1, "s");
  R.metric("driver.pass2_s", L.Pass2, "s");
  R.metric("driver.compile_s", L.CompileS, "s");
  const std::string CompileBase = "compile spans " + fmt(L.CompileS) + " s";
  R.metric("driver.stageB_share", ratio(L.StageB, L.CompileS), "ratio",
           CompileBase);
  R.metric("driver.planner_share", ratio(L.Pass1 + L.Pass2, L.CompileS),
           "ratio", CompileBase);
  R.metric("driver.compile_ms_p50", L.CompileMsP50, "ms", L.CompileMsBase);
  R.metric("driver.compile_ms_p99", L.CompileMsP99, "ms", L.CompileMsBase);
  R.metric("driver.loops_selected", L.LoopsSelected, "count");
  R.metric("partition.nodes_visited", L.NodesVisited, "count");
  R.metric("partition.cost_evals", L.CostEvals, "count");
  R.metric("svp.loops_applied", L.SvpApplied, "count");
  R.metric("sim.seq_s", L.SeqS, "s");
  R.metric("sim.spt_s", L.SptS, "s");
  R.metric("sim.seq_minstrs_per_s", ratio(L.SeqInstrs, L.SeqS) / 1e6, "M/s");
  R.metric("sim.spt_minstrs_per_s", ratio(L.SptInstrs, L.SptS) / 1e6, "M/s");
  R.metric("sim.memo_hit_ratio",
           ratio(L.MemoHits, L.MemoHits + L.MemoMisses), "ratio",
           fmt(L.MemoHits + L.MemoMisses, 12) +
               " memo lookups (hits + misses)");
  R.metric("sim.joins", L.Joins, "count");
  R.metric("sim.clean_join_ratio", ratio(L.CleanJoins, L.Joins), "ratio",
           fmt(L.Joins, 12) + " joins");
  R.metric("sim.reexec_ratio", ratio(L.ReexecInstrs, L.SpecInstrs), "ratio",
           fmt(L.SpecInstrs, 12) + " speculative instrs");
  R.metric("serve.requests", L.Requests, "count");
  R.metric("serve.cache_hit_ratio", ratio(L.CacheHits, L.Requests), "ratio",
           fmt(L.Requests, 12) + " requests");
  R.metric("serve.submit_blocked_s", L.SubmitBlockedS, "s");
  R.metric("serve.retried", L.Retried, "count");
  R.metric("serve.degraded", L.Degraded, "count");
  R.metric("trace.pipeline_s", L.TracedS, "s");
  R.metric("trace.overhead_ratio", L.OverheadRatio, "ratio", L.OverheadBase);
}

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "suite|serve_cold|serve_warm --seed N --seconds S "
               "--trace 0|1\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 == Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value, &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value, &End);
    } else if (Flag == "--trace") {
      A.Trace = std::strcmp(Value, "1") == 0;
      if (!A.Trace && std::strcmp(Value, "0") != 0)
        return usage("--trace takes 0 or 1");
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
    if (End && *End)
      return usage(("malformed value for " + Flag).c_str());
  }
  if (!(A.Seconds > 0.0))
    return usage("--seconds must be positive");

  std::printf("perfbench workload %s seed %llu seconds %g trace %d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0);
  Result R;
  if (A.Workload == "suite")
    runSuite(A, R);
  else if (A.Workload == "serve_cold")
    runServe(A, /*Warm=*/false, R);
  else if (A.Workload == "serve_warm")
    runServe(A, /*Warm=*/true, R);
  else
    return usage(("unknown workload " + A.Workload).c_str());

  std::printf("%s", R.renderText().c_str());
  std::printf("seed %llu: attempted %llu, failed %llu (failed_ratio %.6g)\n",
              static_cast<unsigned long long>(A.Seed),
              static_cast<unsigned long long>(R.attempted()),
              static_cast<unsigned long long>(R.failed()),
              ratio(static_cast<double>(R.failed()),
                    static_cast<double>(R.attempted())));
  std::printf("%s\n", R.renderJson().c_str());
  return 0;
}

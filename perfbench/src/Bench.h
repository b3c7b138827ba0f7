//===- perfbench/src/Bench.h - The benchmark's workloads ------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the three workloads. Each fills \p R with every
/// end-to-end metric (A.Trace false) or every per-layer metric (A.Trace
/// true), in the same order on every workload; see perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_PERFBENCH_BENCH_H
#define SPT_PERFBENCH_BENCH_H

#include "Harness.h"

namespace perfbench {

/// The fig14 pipeline over the ten workloads x basic/best/anticipated.
void runSuite(const Args &A, Result &R);

/// A BatchCompileServer batch of generated programs; \p Warm selects the
/// all-cache-hit passes after a cold fill instead of cold batches.
void runServe(const Args &A, bool Warm, Result &R);

/// Inputs of the per-layer metric set. Fields of layers a workload does
/// not run stay 0, so every workload prints the same metrics.
struct LayerMetrics {
  double LowerS = 0, CanonicalizeS = 0;
  double InterpMinstrsPerS = 0;
  double ProfileS = 0, ProfileMstepsPerS = 0, ProfileSlowdown = 0;
  std::string ProfileSlowdownBase;
  double StageA = 0, StageB = 0, StageC = 0, Pass1 = 0, Pass2 = 0;
  double CompileS = 0; ///< Sum of the pipeline's "compile" spans.
  double CompileMsP50 = 0, CompileMsP99 = 0;
  std::string CompileMsBase;
  double LoopsSelected = 0, NodesVisited = 0, CostEvals = 0, SvpApplied = 0;
  double SeqS = 0, SptS = 0, SeqInstrs = 0, SptInstrs = 0;
  double MemoHits = 0, MemoMisses = 0;
  double Joins = 0, CleanJoins = 0, SpecInstrs = 0, ReexecInstrs = 0;
  double Requests = 0, CacheHits = 0, SubmitBlockedS = 0, Retried = 0,
         Degraded = 0;
  double TracedS = 0; ///< Traced pass (or batch) wall.
  double OverheadRatio = 0;
  std::string OverheadBase;
};

/// Records the per-layer metric set (all but the layer.* table) in the
/// fixed order.
void reportLayerMetrics(const LayerMetrics &L, Result &R);

} // namespace perfbench

#endif // SPT_PERFBENCH_BENCH_H

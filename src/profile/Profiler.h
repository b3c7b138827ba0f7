//===- profile/Profiler.h - Edge, dependence and value profiling -----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline profiling (paper Sections 7.2, 7.3): one instrumented run of the
/// program collects, simultaneously,
///
///  - edge profiles (block and branch-direction counts) feeding the
///    annotated CFG of every compilation mode,
///  - data-dependence profiles: for each loop, for each (writer, reader)
///    statement pair, how often the reader consumed a value the writer
///    produced in the same iteration (intra), in the immediately preceding
///    iteration (cross, the violation window of adjacent-iteration
///    speculation), or farther back, and
///  - value profiles for a watch list of statements (stride / last-value
///    patterns for software value prediction).
///
/// Accesses executed inside callees are attributed to the Call statement
/// of the loop's own frame (configurable; turning attribution off
/// reproduces the paper's cost blind spot for loops with calls). rnd() is
/// modeled as a read+write of a synthetic RNG address and print_* as a
/// read+write of a synthetic IO address, so their ordering dependences
/// show up in dependence profiles like any memory dependence.
///
/// The implementation is a flat, LAMP-style last-writer shadow memory
/// with per-activation step stamps (see Profiler.cpp and
/// docs/performance.md); testing/ReferenceProfiler.h is a map-based
/// implementation kept as its differential oracle.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_PROFILE_PROFILER_H
#define SPT_PROFILE_PROFILER_H

#include "analysis/ProfileData.h"
#include "interp/Interp.h"
#include "ir/IR.h"
#include "support/CancelToken.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace spt {

/// Everything one profiling run produces.
struct ProfileBundle {
  EdgeProfileData Edges;
  DepProfileData Deps;
  ValueProfileData Values;

  /// Functional results of the run (for cross-checking against plain
  /// interpretation).
  Value Result;
  std::string Output;
  uint64_t Instrs = 0;

  /// False when the run could not complete — the entry function is missing
  /// or the step budget ran out — in which case the profiles are partial
  /// (possibly empty) and Error says why. Callers that need trustworthy
  /// data must check this; the driver degrades to static analysis instead
  /// of aborting.
  bool Completed = true;
  std::string Error;
};

/// Profiling configuration.
struct ProfilerOptions {
  bool CollectEdges = true;
  bool CollectDeps = true;
  bool CollectValues = true;
  /// Attribute callee memory accesses to the Call statement visible to the
  /// profiled loop. Off reproduces the paper's Figure 19 outliers.
  bool AttributeCalleeAccesses = true;
  /// Statements whose destination value sequence should be profiled
  /// (sampled at each execution).
  std::set<std::pair<const Function *, StmtId>> ValueWatch;
  uint64_t MaxSteps = 500000000ull;
  uint64_t RngSeed = 0x5eed5eed5eedull;
  /// Cooperative cancellation (null disables it), polled every few
  /// thousand interpreted steps. Firing aborts the run like step-budget
  /// exhaustion: the bundle comes back Completed = false with an
  /// explanatory Error, and the driver degrades or abandons it.
  const CancelToken *Cancel = nullptr;
};

/// Runs \p FnName(\p Args) under instrumentation and returns the profiles.
ProfileBundle profileRun(const Module &M, const std::string &FnName,
                         const std::vector<Value> &Args = {},
                         const ProfilerOptions &Opts = ProfilerOptions());

} // namespace spt

#endif // SPT_PROFILE_PROFILER_H

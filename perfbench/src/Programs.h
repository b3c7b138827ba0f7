//===- perfbench/src/Programs.h - Compile, simulate and check one program -===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fig14 pipeline for one program, as the benchmark drives it through
/// the public API, plus the independent reference it is checked against
/// and the direct per-layer probes.
///
/// Reference: a plain Interpreter run of the untransformed module. It
/// shares no code path with the compiler under test, so a miscompile or a
/// simulator bug shows up as a Result/Output/MemoryHash mismatch. A
/// mismatch is counted and named; it never aborts the run.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_PERFBENCH_PROGRAMS_H
#define SPT_PERFBENCH_PROGRAMS_H

#include "Harness.h"

#include "spt.h"

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::array<spt::CompilationMode, 3> AllModes = {
    spt::CompilationMode::Basic, spt::CompilationMode::Best,
    spt::CompilationMode::Anticipated};

/// Architectural end state of a finished run.
struct ArchState {
  bool Done = false;
  spt::Value Result;
  std::string Output;
  uint64_t MemoryHash = 0;
  uint64_t Instrs = 0;
  double Seconds = 0.0; ///< Wall time of the interpretation.
};

/// Interprets main() of the untransformed module \p M (the reference),
/// with the simulators' step budget.
ArchState interpret(const spt::Module &M, uint64_t RngSeed);

/// Knobs of one pipeline run.
struct RunConfig {
  uint64_t RngSeed = 0x5eed5eed5eedull; ///< Profiler and both simulators.
  uint64_t ProfileMaxSteps = 500000000ull;
  /// When non-null, the run is traced: benchmark spans around every call,
  /// and the pipeline's own spans/counters through the public hooks.
  spt::ObsContext *Obs = nullptr;
};

struct ModeRun {
  spt::CompilationReport Report;
  spt::SptSimResult Spt;
  double CompileS = 0.0; ///< compileSpt wall.
  double SptS = 0.0;     ///< runSpt wall.
  /// Traced runs: the compileSpt call's interval on the trace clock, so
  /// its stage spans can be told apart per mode.
  uint64_t TraceBeginNs = 0, TraceEndNs = 0;
};

struct ProgramRun {
  std::string Name;
  spt::SeqSimResult Seq;
  double SeqS = 0.0; ///< runSequential wall.
  std::vector<ModeRun> Modes; ///< In AllModes order.

  /// Simulated SPT speedup of mode \p I over runSequential.
  double speedup(size_t I) const;
};

using Lowering = std::function<std::unique_ptr<spt::Module>()>;

/// Lowers the program, runs cleanupModule + runSequential on the base
/// module, then lowers again and runs compileSpt + runSpt for every mode.
/// Each simulated result is checked against \p Ref; a mismatch counts as
/// a failure in \p R, named "<Name>/<mode>".
ProgramRun runProgram(const std::string &Name, const Lowering &Lower,
                      const ArchState &Ref, const RunConfig &Cfg, Result &R);

/// Deterministic tallies of a set of runs (the counts that must repeat
/// exactly for one seed).
struct RunCounts {
  uint64_t LoopsSelected = 0;
  uint64_t SvpApplied = 0;
  uint64_t Joins = 0;
  uint64_t CleanJoins = 0;
  uint64_t SpecInstrs = 0;
  uint64_t ReexecInstrs = 0;
  uint64_t MemoHits = 0;
  uint64_t MemoMisses = 0;
  uint64_t SeqInstrs = 0;
  uint64_t SptInstrs = 0;
};
RunCounts countRuns(const std::vector<ProgramRun> &Runs);
/// Adds one compilation's selected loops and SVP rewrites to \p C.
void countReport(const spt::CompilationReport &Report, RunCounts &C);

/// Per-mode speedup geomeans over \p Runs.
std::array<double, 3> speedupGeomeans(const std::vector<ProgramRun> &Runs);

/// Direct profileRun of \p M with best-mode collection (edges,
/// dependences, values); returns the wall seconds and adds steps to
/// \p Steps.
double probeProfile(const spt::Module &M, uint64_t RngSeed,
                    uint64_t MaxSteps, uint64_t &Steps);

/// Parse + canonical reprint + fnv1a of every source, the batch server's
/// request canonicalization, called directly. Returns wall seconds;
/// sources that fail to parse are counted as failures in \p R.
double probeCanonicalize(const std::vector<std::string> &Sources, Result &R);

} // namespace perfbench

#endif // SPT_PERFBENCH_PROGRAMS_H

//===- testing/Oracles.h - Differential oracle catalogue -------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pluggable oracle set of the fuzzing subsystem. One oracle = one
/// falsifiable claim about the pipeline, checked differentially on a
/// single program. The catalogue unifies the repo's three historical
/// ad-hoc differential harnesses (tests/fuzz_test.cpp's end-to-end
/// checksum sweep, tests/chaos_test.cpp's fault-injection oracle, and the
/// incremental-vs-reference equivalence walks of
/// tests/cost_incremental_test.cpp / PartitionEquivalenceTest) into one
/// engine that the fuzzer, the reducer and the tests all drive.
///
/// Oracles:
///   verify          transformed modules pass ir::Verifier; report
///                   invariants hold (finite non-negative costs, selected
///                   loops searched, loop-id map consistent).
///   interp          interpretation of the transformed module preserves
///                   the baseline checksum and output, per mode.
///   interp-decode-diff
///                   the interpreter's decoded (threaded-dispatch,
///                   superinstruction-fused) engine emits the reference
///                   stepper's exact StepResult stream, output and memory
///                   image, on the base and transformed modules.
///   seqsim          the sequential simulator computes the same result,
///                   output and final memory image as plain
///                   interpretation.
///   sptsim          the speculative simulator's architectural state
///                   matches the sequential reference, per mode.
///   chaos           ditto under fault injection (forced squashes, value
///                   flips, timing jitter).
///   cost-diff       MisspecCostModel is bit-identical to the reference
///                   model (testing/ReferencePlanner.h) over random
///                   partitions of the program's loop graphs: the static
///                   ones, and the ones built from a profiling run of the
///                   base module as Best-mode pass 1 builds them.
///   partition-diff  PartitionSearch returns the reference search's
///                   bit-identical results on the same two sets of
///                   graphs.
///   cache-diff      warm-cache compiles byte-equal to cold compiles;
///                   corrupted cache entries are detected, never served.
///   kway-diff       the generalized N-core SPT engine is byte-identical
///                   to the retained two-core reference at Cores=2, and
///                   preserves architectural state at Cores=4 and 8.
///   profile-diff    profileRun returns the reference profiler's bundle
///                   field for field (values watched, attribution off, a
///                   budget that ends the run early); dependence-profile
///                   artifacts are deterministic, round-trip with checksum
///                   verification, and never change program semantics.
///
/// Every oracle is deterministic given (Source, OracleOptions): internal
/// randomness derives from the source's content hash.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_TESTING_ORACLES_H
#define SPT_TESTING_ORACLES_H

#include "driver/SptCompiler.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spt {

struct OracleOptions {
  /// Step budget for every interpretation/simulation run, and the
  /// profiling budget handed to compileSpt. Programs whose *baseline*
  /// does not terminate within the budget are rejected before any oracle
  /// runs (mutants can loop forever; that is not a divergence).
  uint64_t MaxSteps = 40000000ull;
  /// Fault-injection pressure of the chaos oracle.
  double ChaosRate = 0.3;
  /// Master seed for the chaos injector and the cost-walk RNG.
  uint64_t Seed = 0x5eed5eed5eedull;
  /// Caps for the graph-level oracles, which grow with program size.
  unsigned MaxLoopsForGraphOracles = 6;
  unsigned MaxCostTrials = 10;
  /// Restrict the run to the named oracles (empty = all). Unknown names
  /// are ignored.
  std::vector<std::string> Only;
  /// Hidden fault: compile the pipeline's copy from a known-bad mutated
  /// source (see applyKnownBadMutation) while the baseline keeps the
  /// original. Emulates a miscompilation the oracles must catch; used to
  /// self-test the fuzzer's detection and reduction machinery.
  bool InjectKnownBad = false;
  /// Observability sink: per-oracle "oracle.<name>" spans plus
  /// pass/fail/skip counters, and the speculative simulations' counters.
  /// Null (default) disables recording.
  ObsContext *Obs = nullptr;
};

enum class OracleStatus : uint8_t { Pass, Fail, Skipped };

struct OracleResult {
  std::string Oracle;
  OracleStatus Status = OracleStatus::Pass;
  /// For failures: what diverged, with enough context to triage. For
  /// skips: why the oracle did not apply.
  std::string Detail;
};

/// Everything one suite run produced.
struct OracleRunReport {
  /// False when the frontend rejected the program (mutants may not
  /// compile; the fuzzer discards them).
  bool Compiled = false;
  /// False when the baseline interpretation exhausted MaxSteps.
  bool Terminated = false;
  std::string FrontendError;
  std::vector<OracleResult> Results;
  /// Pipeline feature coverage of this program (sorted, deduplicated);
  /// see featureName(). Drives corpus retention.
  std::vector<uint32_t> Features;

  bool allPassed() const {
    for (const OracleResult &R : Results)
      if (R.Status == OracleStatus::Fail)
        return false;
    return true;
  }
  const OracleResult *firstFailure() const {
    for (const OracleResult &R : Results)
      if (R.Status == OracleStatus::Fail)
        return &R;
    return nullptr;
  }
};

struct OracleInfo {
  const char *Name;
  const char *Description;
};

/// The registered oracles, in execution order.
const std::vector<OracleInfo> &oracleCatalogue();

/// Runs the oracle suite on \p Source.
OracleRunReport runOracleSuite(const std::string &Source,
                               const OracleOptions &Opts = OracleOptions());

/// Human-readable name of a coverage feature id.
std::string featureName(uint32_t Feature);

/// The chaos comparison shared by the chaos oracle and
/// tests/chaos_test.cpp's sweep: compile \p Source under \p Mode with
/// \p CompilerSeed, simulate speculatively with a fault injector at
/// \p SquashRate (value-flip and jitter rates scale off it, matching the
/// historical harness), and compare architectural state against the
/// sequential simulation of the untransformed program. Returns "" on
/// match, else a description of the divergence.
std::string chaosCompare(const std::string &Source, CompilationMode Mode,
                         double SquashRate, uint64_t CompilerSeed,
                         uint64_t SimSeed, uint64_t InjectorSeed,
                         uint64_t MaxSteps = 500000000ull);

} // namespace spt

#endif // SPT_TESTING_ORACLES_H

//===- profile/DepProfiler.h - Dependence-profile artifacts ---------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LAMP/SLAMP-style measured dependence profiles as *artifacts*: a
/// profiling run over the instrumented interpreter (profile/Profiler.h)
/// is distilled into a serializable, checksum-verified record of
/// per-loop, per-(store,load) conflict frequencies. Later compilations —
/// including ones in a different process, via the batch compile service —
/// install it with SptCompilerOptions::withProfileArtifact, and the
/// driver hands each loop's record to the graph builder as
/// DepGraphOptions::Measured.
///
/// The artifact is keyed to the program it was measured on: its checksum
/// is fnv1a over the serialized payload XORed with a hash of the
/// module's canonical reprint, so a corrupted file *and* an artifact
/// replayed against a different program are both rejected. Loops are
/// identified structurally (function name + header block id), which is
/// stable across re-parses of the same canonical source.
///
/// Staleness is a first-class concept: `depProfileDrift` compares two
/// artifacts for the same program and returns a [0,1] distance between
/// their conflict-rate distributions. When fresh measurements drift past
/// `DepProfileDriftThreshold`, recompiling against the fresh
/// profile beats keeping the stale plan — the scenario
/// `sptserve --selfcheck` exercises end to end (docs/profiling.md).
///
//===----------------------------------------------------------------------===//

#ifndef SPT_PROFILE_DEPPROFILER_H
#define SPT_PROFILE_DEPPROFILER_H

#include "analysis/ProfileData.h"
#include "interp/Interp.h"
#include "support/CancelToken.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace spt {

class Module;

/// Measured dependence data for one loop, identified structurally so it
/// survives serialization (no pointers).
struct DepArtifactLoop {
  std::string Func;
  BlockId Header = 0;
  LoopDepProfileData Profile;
};

/// A complete serializable dependence profile for one module.
struct DepProfileArtifact {
  /// fnv1a of the module's canonical reprint (moduleReprintHash).
  uint64_t ModuleHash = 0;
  /// Free-form provenance label (workload name, input description).
  std::string Workload;
  /// Interpreter steps the profiling run executed.
  uint64_t Steps = 0;
  /// Sorted by (Func, Header); unique keys.
  std::vector<DepArtifactLoop> Loops;
  /// fnv1a(serialized payload) ^ ModuleHash. Maintained by
  /// profileDependenceArtifact / serializeDepProfile / parseDepProfile;
  /// this is the fingerprint the serve compile-cache key folds in.
  uint64_t Checksum = 0;
};

/// Canonical-reprint hash of a module (fnv1a over printModule output).
/// The artifact side of the "same program?" handshake.
uint64_t moduleReprintHash(const Module &M);

/// Knobs for one profiling run.
struct DepProfilerOptions {
  std::string Entry = "main";
  std::vector<Value> Args;
  std::string Workload;
  uint64_t MaxSteps = 500000000ull;
  uint64_t RngSeed = 0x5eed5eed5eedull;
  const CancelToken *Cancel = nullptr;
};

/// Runs Entry(Args) under dependence instrumentation and distills the
/// result into an artifact (checksum already computed). Errors when the
/// run cannot complete (missing entry, step budget, cancellation).
StatusOr<DepProfileArtifact>
profileDependenceArtifact(const Module &M,
                          const DepProfilerOptions &Opts = DepProfilerOptions());

/// Renders the artifact in its canonical text form, checksum line
/// included. The checksum is recomputed from the contents (the stored
/// Checksum field is ignored), so serialize→parse always round-trips.
std::string serializeDepProfile(const DepProfileArtifact &A);

/// Parses and verifies. Rejects unknown versions, malformed lines, a
/// number with a sign, trailing bytes or more bits than its field, a
/// repeated (function, header) loop record, and — crucially — checksum
/// mismatches (a flipped byte anywhere in the payload, or a checksum
/// recorded for a different module's payload).
StatusOr<DepProfileArtifact> parseDepProfile(const std::string &Text);

/// [0,1] distance between two artifacts' cross-iteration conflict-rate
/// distributions. 0 = identical rates (or no cross conflicts anywhere on
/// either side); 1 = every conflicting loop's rates completely reversed.
/// Loops are matched by (Func, Header) and weighted by their
/// cross-conflict mass — the loops whose speculation decision the
/// measurements could actually change — so conflict-free init sweeps and
/// inner compute loops never dilute the verdict. Symmetric.
double depProfileDrift(const DepProfileArtifact &A,
                       const DepProfileArtifact &B);

/// depProfileDrift level above which serving infrastructure should
/// consider an artifact stale and recompile with a fresh one. The
/// compiler itself does not act on it; sptserve's drift scenario and
/// sptprof read it.
inline constexpr double DepProfileDriftThreshold = 0.25;

} // namespace spt

#endif // SPT_PROFILE_DEPPROFILER_H

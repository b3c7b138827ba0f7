//===- driver/SptCompiler.h - Two-pass cost-driven SPT compilation ----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The overall compilation framework of the paper's Figure 4: the
/// cost-model/partition core wrapped in a two-pass process with enabling
/// techniques.
///
/// Stage A  Loop preprocessing: unroll loops whose bodies are too small to
///          amortize thread overheads (counted loops in BASIC/BEST —
///          ORC's LNO could only unroll DO loops — plus while loops in
///          ANTICIPATED).
/// Stage B  Offline profiling: one instrumented run collecting edge
///          profiles (all modes), dependence profiles and value profiles
///          (BEST/ANTICIPATED).
/// Stage C  Software value prediction: rewrite critical, predictable
///          violation candidates (BEST/ANTICIPATED), then re-profile so
///          the recovery paths' rarity is measured.
/// Pass 1   For every loop at every nesting level: build the annotated
///          dependence graph, search the optimal partition, record the
///          outcome and the selection verdict (cost, pre-fork size, body
///          size, iteration count — Section 6.1).
/// Pass 2   Global selection among the candidates (non-overlapping,
///          benefit-ranked), re-partition and apply the SPT
///          transformation, assigning SPT loop ids.
///
/// The resulting CompilationReport carries everything the benchmark
/// harnesses need: per-loop verdicts (Figure 15), selected-loop partitions
/// and sizes (Figure 17), estimated misspeculation costs (Figure 19), and
/// the loop-id map that drives the SPT simulator.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_DRIVER_SPTCOMPILER_H
#define SPT_DRIVER_SPTCOMPILER_H

#include "analysis/ProfileData.h"
#include "interp/Interp.h"
#include "obs/Obs.h"
#include "partition/Partition.h"
#include "sim/SptSim.h"
#include "support/CancelToken.h"
#include "support/Status.h"
#include "svp/Svp.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace spt {

struct ProfileBundle;
struct DepProfileArtifact;

/// The paper's three evaluated compilations (Section 8).
enum class CompilationMode {
  Basic,       ///< Edge profiling + type-based aliasing + reordering.
  Best,        ///< + dependence profiling + software value prediction.
  Anticipated, ///< + while-loop unrolling + global export (call motion).
};

const char *compilationModeName(CompilationMode Mode);

/// Why a loop candidate was not SPT-transformed (Figure 15 categories).
enum class RejectReason {
  Selected,       ///< Not rejected: a valid partition was chosen.
  NeverExecuted,  ///< No profile coverage to judge it by.
  TooManyVcs,     ///< Skipped by the partition searcher (Section 5.2.1).
  BodyTooLarge,   ///< Exceeds the machine's speculative-size limit.
  BodyTooSmall,   ///< Too small even after permitted unrolling.
  LowTripCount,   ///< Expected iterations below the threshold.
  HighCost,       ///< No partition below the cost threshold.
  NoGain,         ///< Analytic speedup estimate not positive.
  Nested,          ///< Overlaps a selected loop in the same function.
  TransformFailed, ///< The partition could not be realized.
  StageError       ///< A pipeline stage failed on this loop; it was
                   ///< skipped instead of aborting the compilation.
};

const char *rejectReasonName(RejectReason Reason);

/// Compiler thresholds and mode knobs, grouped by concern:
///
///   Selection      Section 6.1 selection criteria (thresholds a loop must
///                  clear to be SPT-transformed).
///   Machine        Modeled hardware overheads in the analytic gain
///                  estimate.
///   Enabling       Stage B/C enabling techniques and their ablation
///                  switches.
///   Observability  The span/counter layer (off by default).
struct SptCompilerOptions {
  CompilationMode Mode = CompilationMode::Best;

  /// Entry point and arguments of the profiling run.
  std::string ProfileEntry = "main";
  std::vector<Value> ProfileArgs;

  /// Section 6.1 selection criteria.
  struct SelectionOptions {
    double CostFraction = 0.08;        ///< Cost < fraction * body weight.
    double PreForkSizeFraction = 0.34; ///< Pre-fork < fraction * body.
    double MinBodyWeight = 200.0;      ///< Dynamic weight per iteration.
    double MaxBodyWeight = 1500.0;     ///< Hardware speculative-size limit.
    double MinTripCount = 2.0;
    uint32_t MaxViolationCandidates = 30;
    uint32_t MaxUnrollFactor = 16;
    /// Minimum analytically estimated speedup to select a loop.
    double MinGainEstimate = 1.15;
  } Selection;

  /// Machine overheads used in the analytic gain estimate.
  struct MachineOptions {
    double ForkOverheadWeight = 6.0;
    double CommitOverheadWeight = 5.0;
    /// Pipeline-restart cost the speculative core pays per thread (its
    /// scheduling window starts cold at each fork).
    double JoinSerializationWeight = 20.0;
    /// Total cores of the target machine (main + speculative), mirroring
    /// MachineConfig::Cores. 2 (the default) is the paper's machine and
    /// keeps the historical gain estimate and report rendering
    /// byte-identical; >2 switches the gain estimate to the chained
    /// group form and runs the k-way partition search per selected loop.
    uint32_t Cores = 2;
  } Machine;

  /// Stage B/C enabling techniques and their ablation switches.
  struct EnablingOptions {
    SvpOptions Svp;
    /// Ablation switches within BEST/ANTICIPATED: individually disable
    /// the enabling techniques the mode would otherwise use.
    bool EnableSvp = true;
    bool EnableDepProfiles = true;
    /// Figure 19 ablation: model call effects in cost estimation.
    bool ModelCallEffectsInCost = true;
    /// Attribute callee memory accesses to call sites while profiling.
    bool AttributeCalleeAccesses = true;
  } Enabling;

  /// Probability sourcing for the cost model: which dependence-oracle
  /// ensemble to build, the measured profile artifact to feed its
  /// measured member, and the combiner thresholds. See
  /// analysis/oracle/DepOracle.h and docs/profiling.md.
  struct AnalysisOptions {
    /// Registry name of the oracle to build ("ensemble", "static",
    /// "profile", "fallback", "measured", or a caller-registered name).
    /// Unknown names degrade to the default ensemble with a diagnostic.
    std::string DependenceOracle = "ensemble";
    /// Measured dependence-profile artifact for the ensemble's measured
    /// member; null compiles without one (the historical behavior).
    /// Ignored with a diagnostic when the artifact's ModuleHash does not
    /// match the module being compiled. Shared, not copied: callers keep
    /// the artifact alive via the shared_ptr.
    std::shared_ptr<const DepProfileArtifact> Profile;
    /// Provenance of Profile (file path or label) for diagnostics only.
    std::string ProfilePath;
    /// Minimum member confidence the ensemble combiner accepts before
    /// falling through to lower-priority members. 0.0 (default)
    /// reproduces the pre-oracle behavior byte for byte.
    double ConfidenceFloor = 0.0;
    /// depProfileDrift level above which serving infrastructure should
    /// consider Profile stale and recompile with a fresh one. The
    /// compiler itself does not act on it; sptserve's drift scenario and
    /// custom schedulers read it from the options.
    double DriftThreshold = 0.25;
  } Analysis;

  /// The span/counter observability layer (docs/observability.md).
  struct ObservabilityOptions {
    /// Master switch. When false (default) the pipeline pays one null
    /// pointer test per instrumentation site and records nothing.
    bool Enabled = false;
    /// Record into this caller-owned context (so one context can span
    /// several compilations, as the spt::Compiler facade does). When
    /// null and Enabled, compileSpt creates a context for the duration
    /// of the run; its snapshot still lands in CompilationReport::Stats.
    ObsContext *Context = nullptr;
  } Observability;

  uint64_t RngSeed = 0x5eed5eed5eedull;
  uint64_t ProfileMaxSteps = 500000000ull;

  /// Pre-collected profile to use instead of running stage B's
  /// instrumented run. Validated against the module before use; missing,
  /// incomplete or corrupt data degrades the compilation to Basic-mode
  /// semantics (type-based aliasing, no dependence profiles, no SVP) with
  /// a diagnostic instead of crashing.
  const ProfileBundle *ExternalProfile = nullptr;

  /// Wall-clock budget for each partition search, alongside the node
  /// budget (0 disables the deadline). Exhaustion keeps the best
  /// incumbent and surfaces PartitionResult::BudgetExhausted.
  double MaxPartitionSeconds = 0.0;

  /// Cooperative cancellation for the whole compilation (null = never
  /// cancels). The batch server arms one token per request with the
  /// request deadline; the pipeline polls it at stage boundaries, per
  /// loop candidate, inside the profiler's interpretation loop, and on
  /// the partition search's budget stride. Unlike MaxPartitionSeconds —
  /// a per-search budget that restarts for every loop — the token
  /// carries one absolute deadline, so a request deadline cannot be
  /// overshot by a full loop search. When it fires, compileSpt stops
  /// early and returns a report with Cancelled = true; such reports are
  /// partial and must not be cached or compared.
  const CancelToken *Cancel = nullptr;

  /// Use the retained pre-optimization cost/partition evaluation paths
  /// (allocating per-node cost calls, O(E*V) cost-graph construction).
  /// Results are bit-identical to the default incremental paths; this is
  /// the measured baseline of bench/perf_compile.
  bool ReferencePartitionEvaluation = false;

  // --- Builder: mode factories plus chainable with*() setters. ---
  //   auto Opts = SptCompilerOptions::best().withCores(4).withTracing();
  static SptCompilerOptions basic() {
    SptCompilerOptions O;
    O.Mode = CompilationMode::Basic;
    return O;
  }
  static SptCompilerOptions best() {
    SptCompilerOptions O;
    O.Mode = CompilationMode::Best;
    return O;
  }
  static SptCompilerOptions anticipated() {
    SptCompilerOptions O;
    O.Mode = CompilationMode::Anticipated;
    return O;
  }
  SptCompilerOptions withMode(CompilationMode M) const {
    SptCompilerOptions O = *this;
    O.Mode = M;
    return O;
  }
  SptCompilerOptions withSeed(uint64_t Seed) const {
    SptCompilerOptions O = *this;
    O.RngSeed = Seed;
    return O;
  }
  SptCompilerOptions withProfile(const ProfileBundle *P) const {
    SptCompilerOptions O = *this;
    O.ExternalProfile = P;
    return O;
  }
  SptCompilerOptions withPartitionDeadline(double Seconds) const {
    SptCompilerOptions O = *this;
    O.MaxPartitionSeconds = Seconds;
    return O;
  }
  SptCompilerOptions withCancel(const CancelToken *Token) const {
    SptCompilerOptions O = *this;
    O.Cancel = Token;
    return O;
  }
  SptCompilerOptions withCores(uint32_t Cores) const {
    SptCompilerOptions O = *this;
    O.Machine.Cores = Cores;
    return O;
  }
  /// Enables observability; recording goes to \p Ctx when given, else to
  /// a per-compilation context.
  SptCompilerOptions withTracing(ObsContext *Ctx = nullptr) const {
    SptCompilerOptions O = *this;
    O.Observability.Enabled = true;
    O.Observability.Context = Ctx;
    return O;
  }
  /// Select the dependence-oracle ensemble by registry name, optionally
  /// raising the combiner's confidence floor.
  SptCompilerOptions withDependenceOracle(std::string Name,
                                          double ConfidenceFloor = 0.0) const {
    SptCompilerOptions O = *this;
    O.Analysis.DependenceOracle = std::move(Name);
    O.Analysis.ConfidenceFloor = ConfidenceFloor;
    return O;
  }
  /// Attach a measured dependence-profile artifact (the ensemble's
  /// measured member). Path is provenance for diagnostics.
  SptCompilerOptions
  withProfileArtifact(std::shared_ptr<const DepProfileArtifact> A,
                      std::string Path = std::string()) const {
    SptCompilerOptions O = *this;
    O.Analysis.Profile = std::move(A);
    O.Analysis.ProfilePath = std::move(Path);
    return O;
  }
};

/// One loop candidate's pass-1/pass-2 record.
struct LoopRecord {
  std::string FuncName;
  BlockId Header = NoBlock; ///< Stable identity across stages.
  uint32_t Depth = 1;
  bool Counted = false;
  uint32_t UnrollFactor = 1;
  bool SvpApplied = false;

  double BodyWeight = 0.0; ///< Dynamic weight per iteration.
  double TripCount = 0.0;
  uint64_t ProfiledIterations = 0;
  /// Total profiled work (iterations * body weight), the coverage proxy
  /// used for ranking and Figure 16.
  double Work = 0.0;

  PartitionResult Partition;
  /// K-way partition chain (Cores > 2 only; default-empty otherwise so
  /// two-core reports stay byte-identical).
  KwayPartitionResult Kway;
  double GainEstimate = 0.0; ///< Analytic speedup estimate (>= 0).
  RejectReason Reason = RejectReason::Selected;
  /// Human-readable detail for TransformFailed/StageError rejections and
  /// for budget-exhausted partition searches (stable strings tests key on).
  std::string FailureDetail;
  bool Selected = false;
  int64_t SptLoopId = -1;
  uint32_t NumCarriedRegs = 0;
  uint32_t NumMovedStmts = 0;
};

/// Everything the compilation produced.
struct CompilationReport {
  CompilationMode Mode = CompilationMode::Best;
  /// The machine's core count the compilation targeted
  /// (SptCompilerOptions::Machine.Cores). renderReportDeterministic emits
  /// it — and the per-loop k-way chain records — only when it differs
  /// from the historical 2, so two-core reports are byte-stable.
  uint32_t Cores = 2;
  /// The semantics actually compiled with: equals Mode unless profile
  /// validation failed and the run degraded to Basic.
  CompilationMode EffectiveMode = CompilationMode::Best;
  /// True when missing/corrupt profile data forced the Basic fallback.
  bool Degraded = false;
  /// True when SptCompilerOptions::Cancel fired during the run. The
  /// report is partial (whatever completed before the token tripped) and
  /// is excluded from renderReportDeterministic comparisons — callers
  /// like the batch server discard it and retry, degrade, or skip.
  bool Cancelled = false;
  /// Structured per-stage diagnostics (degradations, skipped loops,
  /// exhausted budgets); never empty when Degraded or any loop carries
  /// RejectReason::StageError.
  DiagnosticLog Diags;
  std::vector<LoopRecord> Loops;
  /// Loop-id map for runSpt().
  std::map<int64_t, SptLoopDesc> SptLoops;
  /// Wall time of pass 1 (candidate gathering + dependence/cost/partition
  /// analysis), for bench/perf_compile. Timing only — excluded from
  /// renderReportDeterministic.
  double PassOneSeconds = 0.0;
  /// Counter/histogram/span-count snapshot of the observability layer;
  /// empty unless Observability.Enabled. Deterministic for a given seed
  /// and module, but deliberately excluded from renderReportDeterministic
  /// so enabling tracing cannot perturb report comparisons. Render with
  /// renderStatsText/renderStatsJson.
  StatsSnapshot Stats;

  size_t numSelected() const {
    size_t N = 0;
    for (const LoopRecord &R : Loops)
      if (R.Selected)
        ++N;
    return N;
  }
};

/// Runs the full two-pass compilation on \p M (mutating it) and returns
/// the report. The module must verify; it verifies again afterwards.
CompilationReport compileSpt(Module &M, const SptCompilerOptions &Opts);

/// Serializes every deterministic field of \p Report — modes, degradation,
/// per-loop records (costs and weights at full %.17g precision, partitions,
/// search statistics, failure details), diagnostics, and the SPT loop-id
/// map. Wall-clock fields (PassOneSeconds) are excluded. The report-diff
/// and cache-diff fuzz oracles, bench/perf_compile and
/// tests/goldens/sims.golden compare reports through it.
std::string renderReportDeterministic(const CompilationReport &Report);

} // namespace spt

#endif // SPT_DRIVER_SPTCOMPILER_H

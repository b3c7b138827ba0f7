//===- driver/SptCompiler.cpp - Two-pass cost-driven SPT compilation ---------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/SptCompiler.h"

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "analysis/oracle/DepOracle.h"
#include "cost/CostModel.h"
#include "ir/Verifier.h"
#include "profile/DepProfiler.h"
#include "profile/Profiler.h"
#include "support/Debug.h"
#include "transform/Cleanup.h"
#include "transform/SptTransform.h"
#include "transform/Unroll.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>

using namespace spt;

const char *spt::compilationModeName(CompilationMode Mode) {
  switch (Mode) {
  case CompilationMode::Basic:
    return "basic";
  case CompilationMode::Best:
    return "best";
  case CompilationMode::Anticipated:
    return "anticipated";
  }
  spt_unreachable("unknown compilation mode");
}

const char *spt::rejectReasonName(RejectReason Reason) {
  switch (Reason) {
  case RejectReason::Selected:
    return "valid partition";
  case RejectReason::NeverExecuted:
    return "never executed";
  case RejectReason::TooManyVcs:
    return "too many violation candidates";
  case RejectReason::BodyTooLarge:
    return "body too large";
  case RejectReason::BodyTooSmall:
    return "body too small";
  case RejectReason::LowTripCount:
    return "low iteration count";
  case RejectReason::HighCost:
    return "high misspeculation cost";
  case RejectReason::NoGain:
    return "no estimated gain";
  case RejectReason::Nested:
    return "nested in a selected loop";
  case RejectReason::TransformFailed:
    return "transformation not realizable";
  case RejectReason::StageError:
    return "internal stage error";
  }
  spt_unreachable("unknown reject reason");
}

namespace {

/// Fresh structural + frequency analyses of one function, using measured
/// edge counts when available.
struct FuncAnalysis {
  CfgInfo Cfg;
  LoopNest Nest;
  CfgProbabilities Probs;
  FreqInfo Freq;
  const FunctionEdgeCounts *Counts = nullptr;

  FuncAnalysis(const Function &F, const EdgeProfileData *Prof,
               const DepOracle &Oracle)
      : Cfg(CfgInfo::compute(F)), Nest(LoopNest::compute(F, Cfg)) {
    if (Prof)
      Counts = Prof->countsFor(&F);
    // Branch probabilities come from the oracle; its profiled member
    // validates Counts (shape match, at least one executed block) and
    // the static member answers otherwise. Counts stays raw either way —
    // downstream guards (SVP sampling, trip-count reporting) apply their
    // own shape checks.
    BranchProbQuery Q;
    Q.F = &F;
    Q.Cfg = &Cfg;
    Q.Nest = &Nest;
    Q.Counts = Counts;
    if (std::optional<BranchProbEstimate> E = Oracle.branchProbabilities(Q)) {
      Probs = std::move(E->Probs);
      Freq = E->Measured ? FreqInfo::fromBlockCounts(F, *Counts)
                         : FreqInfo::compute(F, Cfg, Nest, Probs);
    } else {
      // No member answered (e.g. the pure-fallback oracle): keep the
      // static heuristic so frequencies stay well-defined.
      Probs = CfgProbabilities::staticHeuristic(F, Cfg, Nest);
      Freq = FreqInfo::compute(F, Cfg, Nest, Probs);
    }
  }

  const Loop *loopByHeader(BlockId Header) const {
    for (uint32_t I = 0; I != Nest.numLoops(); ++I)
      if (Nest.loop(I)->Header == Header)
        return Nest.loop(I);
    return nullptr;
  }
};

/// Expected dynamic weight of one invocation of every function,
/// transitively through calls (fixpoint over the call graph; recursion is
/// bounded by clamping). This is what a Call statement really costs when
/// sizing a loop body for the hardware's speculative-buffer limit — a flat
/// per-call weight would make a loop that calls the whole program look
/// tiny.
std::map<const Function *, double>
computeFunctionWeights(const Module &M, const DepOracle &Oracle) {
  std::map<const Function *, double> Weights;
  constexpr double Clamp = 1e7;
  for (int Round = 0; Round != 6; ++Round) {
    for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
      const Function *F = M.function(static_cast<uint32_t>(FI));
      if (F->isExternal() || F->numBlocks() == 0) {
        Weights[F] = opClassWeight(OpClass::Call);
        continue;
      }
      CfgInfo Cfg = CfgInfo::compute(*F);
      LoopNest Nest = LoopNest::compute(*F, Cfg);
      BranchProbQuery Q;
      Q.F = F;
      Q.Cfg = &Cfg;
      Q.Nest = &Nest;
      std::optional<BranchProbEstimate> E = Oracle.branchProbabilities(Q);
      CfgProbabilities Probs =
          E ? std::move(E->Probs)
            : CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
      FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);
      double W = 0.0;
      for (const auto &BB : *F) {
        const double BF = Freq.blockFreq(BB->id());
        for (const Instr &I : BB->Instrs) {
          if (I.Op == Opcode::Call) {
            auto It = Weights.find(M.function(I.calleeIndex()));
            W += BF * (It != Weights.end()
                           ? It->second
                           : opClassWeight(OpClass::Call));
          } else {
            W += BF * opClassWeight(opcodeClass(I.Op));
          }
        }
      }
      Weights[F] = std::min(W, Clamp);
    }
  }
  return Weights;
}

/// Weight of one statement for critical-path purposes; calls count half
/// their callee's expected invocation weight (callees pipeline
/// internally).
double weightOfStmtImpl(const Module &M, const LoopStmt &S,
                        const std::map<const Function *, double> &FW) {
  if (S.I->Op == Opcode::Call) {
    auto It = FW.find(M.function(S.I->calleeIndex()));
    if (It != FW.end())
      return It->second * 0.5;
  }
  return S.Weight;
}

/// Dynamic weight of one loop iteration; Call statements cost their
/// callee's expected invocation weight when \p FuncWeights is provided.
double loopDynamicWeight(const Module &M, const Function &F, const Loop &L,
                         const FreqInfo &Freq,
                         const std::map<const Function *, double>
                             *FuncWeights = nullptr) {
  double W = 0.0;
  for (BlockId B : L.Blocks) {
    const double IterFreq = Freq.freqPerIteration(L, B);
    for (const Instr &I : F.block(B)->Instrs) {
      double OpW = opClassWeight(opcodeClass(I.Op));
      if (I.Op == Opcode::Call && FuncWeights) {
        auto It = FuncWeights->find(M.function(I.calleeIndex()));
        if (It != FuncWeights->end())
          OpW = It->second;
      }
      W += OpW * IterFreq;
    }
  }
  return W;
}

/// One compilation run's mutable state.
class Compilation {
public:
  Compilation(Module &M, const SptCompilerOptions &Opts)
      : M(M), Opts(Opts) {
    if (Opts.Observability.Enabled) {
      if (Opts.Observability.Context)
        Obs = Opts.Observability.Context;
      else {
        OwnedObs = std::make_unique<ObsContext>();
        Obs = OwnedObs.get();
      }
    }
    buildOracle();
  }

  CompilationReport run();

private:
  bool wantDepProfiles() const {
    return Opts.Mode != CompilationMode::Basic && Opts.Enabling.EnableDepProfiles &&
           !DegradedToBasic;
  }
  bool wantSvp() const {
    return Opts.Mode != CompilationMode::Basic && Opts.Enabling.EnableSvp &&
           !DegradedToBasic;
  }
  bool unrollWhileLoops() const {
    return Opts.Mode == CompilationMode::Anticipated;
  }

  /// Fall back to Basic-mode semantics (type-based aliasing, no dependence
  /// profiles, no SVP) with a diagnostic. Idempotent; used when profile
  /// data is missing, incomplete or fails validation.
  void degradeToBasic(const std::string &Why) {
    Report.Degraded = true;
    Report.EffectiveMode = CompilationMode::Basic;
    Report.Diags.warn(DiagStage::Profile,
                      Why + "; degrading to Basic-mode semantics "
                            "(type-based aliasing, dependence profiles and "
                            "SVP disabled)");
    DegradedToBasic = true;
  }

  void validateExternalProfile();

  /// Builds the dependence-oracle ensemble the whole compilation queries.
  /// Unknown registry names and artifacts measured on a different module
  /// degrade gracefully: diagnostic + the default configuration.
  void buildOracle() {
    DepOracleConfig Config;
    Config.ConfidenceFloor = Opts.Analysis.ConfidenceFloor;
    if (Opts.Analysis.Profile) {
      if (Opts.Analysis.Profile->ModuleHash != moduleReprintHash(M)) {
        const std::string From = Opts.Analysis.ProfilePath.empty()
                                     ? std::string("artifact")
                                     : "artifact '" + Opts.Analysis.ProfilePath +
                                           "'";
        Report.Diags.warn(DiagStage::Profile,
                          "measured dependence " + From +
                              " was built from a different module; ignoring "
                              "its measurements");
      } else {
        Config.Measured = makeMeasuredDepOracle(Opts.Analysis.Profile);
      }
    }
    Oracle = DepOracleRegistry::instance().create(
        Opts.Analysis.DependenceOracle, Config);
    if (!Oracle) {
      Report.Diags.warn(DiagStage::Driver,
                        "unknown dependence oracle '" +
                            Opts.Analysis.DependenceOracle +
                            "'; using the default ensemble");
      Oracle = DepOracleRegistry::instance().create("ensemble", Config);
    }
    // Twin ensemble without the measured member, routed to loops whose
    // bodies unrolling reshapes after the artifact was measured: their
    // pre-unroll per-iteration frequencies no longer describe the
    // compiled shape, so the in-run profile (collected post-unroll) or
    // static analysis must answer instead. Mirrors the FuncAnalysis
    // size guard that screens stale external edge counts.
    if (Config.Measured) {
      DepOracleConfig Bare = Config;
      Bare.Measured = nullptr;
      OracleNoMeasured = DepOracleRegistry::instance().create(
          Opts.Analysis.DependenceOracle, Bare);
      if (!OracleNoMeasured)
        OracleNoMeasured = DepOracleRegistry::instance().create("ensemble", Bare);
    } else {
      OracleNoMeasured = Oracle;
    }
  }

  DepGraphOptions depGraphOptions(const Function &F, const Loop &L) const {
    DepGraphOptions DG;
    DG.Oracle = Unrolled.count({F.name(), L.Header}) ? OracleNoMeasured.get()
                                                     : Oracle.get();
    if (wantDepProfiles() && Profile)
      DG.DepProfile = Profile->Deps.profileFor(&F, L.Id);
    DG.ModelCallEffectsInCost = Opts.Enabling.ModelCallEffectsInCost;
    DG.AllowImpureCallMotion =
        Opts.Mode == CompilationMode::Anticipated && !DegradedToBasic;
    DG.CoarseAliasClasses =
        Opts.Mode == CompilationMode::Basic || DegradedToBasic;
    DG.CallWeights = &FuncWeights;
    return DG;
  }

  PartitionOptions partitionOptions() const {
    PartitionOptions P;
    P.PreForkSizeFraction = Opts.Selection.PreForkSizeFraction;
    P.MaxViolationCandidates = Opts.Selection.MaxViolationCandidates;
    P.MaxSearchSeconds = Opts.MaxPartitionSeconds;
    P.ReferenceEvaluation = Opts.ReferencePartitionEvaluation;
    P.Cancel = Opts.Cancel;
    P.Obs = Obs;
    return P;
  }

  std::vector<Function *> definedFunctions() {
    std::vector<Function *> Out;
    for (size_t I = 0; I != M.numFunctions(); ++I) {
      Function *F = M.function(static_cast<uint32_t>(I));
      if (!F->isExternal() && F->numBlocks() > 0)
        Out.push_back(F);
    }
    return Out;
  }

  void stageUnroll();
  void stageProfile();
  void stageSvp();
  void passOne();
  /// Pass-1 analysis of one loop candidate: fills \p Rec and \p Blocks
  /// and appends its diagnostics to \p Diags.
  void evaluateLoopCandidate(const Function &F, const FuncAnalysis &A,
                             const Loop &L, const CallEffects &Effects,
                             LoopRecord &Rec, DiagnosticLog &Diags,
                             std::set<BlockId> &Blocks) const;
  void passTwo();

  Module &M;
  const SptCompilerOptions &Opts;
  /// Null when observability is disabled; counters and spans all check.
  ObsContext *Obs = nullptr;
  std::unique_ptr<ObsContext> OwnedObs;
  CompilationReport Report;
  /// The probability source every stage queries (never null after the
  /// constructor). Shared so the registry can hand out one ensemble to
  /// many concurrent compilations.
  std::shared_ptr<const DepOracle> Oracle;
  /// Oracle minus the measured artifact member; consulted for loops
  /// unrolling reshaped (see buildOracle). Aliases Oracle when no
  /// artifact is installed.
  std::shared_ptr<const DepOracle> OracleNoMeasured;
  std::unique_ptr<ProfileBundle> Profile;
  /// Set once profile data proved unusable; flips the mode-dependent
  /// switches above to Basic semantics for the rest of the run.
  bool DegradedToBasic = false;
  /// (function name, header) -> unroll factor applied in stage A, plus
  /// whether the loop was counted before unrolling (unrolling duplicates
  /// the induction update, so the unrolled form no longer looks counted).
  struct UnrollInfo {
    uint32_t Factor = 1;
    bool WasCounted = false;
  };
  std::map<std::pair<std::string, BlockId>, UnrollInfo> Unrolled;
  /// Expected per-invocation weight of every function (recomputed after
  /// unrolling changes loop shapes).
  std::map<const Function *, double> FuncWeights;
  std::map<std::pair<std::string, BlockId>, bool> SvpByLoop;
  /// Pass-1 loop block sets for overlap detection in pass 2.
  std::map<std::pair<std::string, BlockId>, std::set<BlockId>> LoopBlocks;
};

void Compilation::stageUnroll() {
  for (Function *F : definedFunctions()) {
    // Gather candidate headers innermost-first from a snapshot.
    std::vector<BlockId> Headers;
    {
      FuncAnalysis A(*F, nullptr, *Oracle);
      for (const Loop *L : A.Nest.innermostFirst())
        Headers.push_back(L->Header);
    }
    for (BlockId Header : Headers) {
      try {
        FuncAnalysis A(*F, nullptr, *Oracle);
        const Loop *L = A.loopByHeader(Header);
        if (!L)
          continue;
        const double W = loopDynamicWeight(M, *F, *L, A.Freq, &FuncWeights);
        if (W >= Opts.Selection.MinBodyWeight || W <= 0.0)
          continue;
        const bool Counted = isCountedLoop(*F, *L);
        if (!Counted && !unrollWhileLoops())
          continue; // ORC's LNO only unrolls DO loops (Section 7.1).
        const double Needed = Opts.Selection.MinBodyWeight / W;
        const uint32_t Factor = static_cast<uint32_t>(std::min<double>(
            Opts.Selection.MaxUnrollFactor, std::max(2.0, std::ceil(Needed))));
        UnrollResult R = unrollLoop(*F, *L, Factor);
        if (R.Ok)
          Unrolled[{F->name(), Header}] = UnrollInfo{Factor, Counted};
      } catch (const std::exception &E) {
        Report.Diags.warn(DiagStage::Unroll,
                          std::string("unroll candidate skipped: ") +
                              E.what(),
                          F->name(), Header);
      }
    }
  }
}

/// Validates Opts.ExternalProfile against the (pre-unroll) module. Any
/// incompleteness or structural mismatch — stale function pointers,
/// truncated per-function count vectors, no edge data at all — is treated
/// as corruption and degrades the whole run to Basic semantics; the
/// type-based pipeline then never consults the untrusted dependence or
/// value profiles, and FuncAnalysis's per-function size guard screens the
/// edge counts that do remain.
void Compilation::validateExternalProfile() {
  const ProfileBundle &B = *Opts.ExternalProfile;
  if (!B.Completed) {
    degradeToBasic("external profile marked incomplete (" +
                   (B.Error.empty() ? std::string("no detail") : B.Error) +
                   ")");
    return;
  }
  if (B.Edges.PerFunc.empty()) {
    degradeToBasic("external profile contains no edge counts");
    return;
  }
  std::set<const Function *> Known;
  for (size_t I = 0; I != M.numFunctions(); ++I)
    Known.insert(M.function(static_cast<uint32_t>(I)));
  for (const auto &[F, Counts] : B.Edges.PerFunc) {
    if (!Known.count(F)) {
      degradeToBasic(
          "external profile references a function outside this module");
      return;
    }
    if (Counts.Block.size() != F->numBlocks() ||
        Counts.Edge.size() != F->numBlocks()) {
      degradeToBasic("external profile edge counts for '" + F->name() +
                     "' do not match the function (truncated or stale)");
      return;
    }
  }
  for (const auto &[Key, Dep] : B.Deps.PerLoop) {
    (void)Dep;
    if (!Known.count(Key.first)) {
      degradeToBasic("external dependence profile references a function "
                     "outside this module");
      return;
    }
  }
  for (const auto &[Key, Stats] : B.Values.PerStmt) {
    (void)Stats;
    if (!Known.count(Key.first)) {
      degradeToBasic("external value profile references a function "
                     "outside this module");
      return;
    }
  }
}

void Compilation::stageProfile() {
  if (Opts.ExternalProfile) {
    // Validation already ran (pre-unroll). Keep the edge counts — the
    // per-function size guard in FuncAnalysis falls back to static
    // heuristics for any function unrolling reshaped — but drop profiles
    // a degraded run must not trust.
    Profile = std::make_unique<ProfileBundle>(*Opts.ExternalProfile);
    if (DegradedToBasic) {
      Profile->Deps.PerLoop.clear();
      Profile->Values.PerStmt.clear();
    }
    return;
  }

  ProfilerOptions POpts;
  POpts.CollectEdges = true;
  POpts.CollectDeps = wantDepProfiles();
  POpts.CollectValues = wantSvp();
  POpts.AttributeCalleeAccesses = Opts.Enabling.AttributeCalleeAccesses;
  POpts.MaxSteps = Opts.ProfileMaxSteps;
  POpts.RngSeed = Opts.RngSeed;
  POpts.Cancel = Opts.Cancel;

  if (wantSvp()) {
    // Watch every register-defining violation candidate (found with the
    // static dependence graph) for value patterns.
    CallEffects Effects = CallEffects::compute(M);
    for (Function *F : definedFunctions()) {
      try {
        FuncAnalysis A(*F, nullptr, *Oracle);
        for (uint32_t LI = 0; LI != A.Nest.numLoops(); ++LI) {
          const Loop *L = A.Nest.loop(LI);
          LoopDepGraph G = LoopDepGraph::build(M, *F, A.Cfg, A.Nest, *L,
                                               A.Freq, Effects,
                                               depGraphOptions(*F, *L));
          for (uint32_t Vc : G.violationCandidates()) {
            const LoopStmt &S = G.stmt(Vc);
            if (S.I->Dst != NoReg && S.I->Ty == Type::Int)
              POpts.ValueWatch.insert({F, S.Id});
          }
        }
      } catch (const std::exception &E) {
        Report.Diags.warn(DiagStage::Profile,
                          std::string("value-watch collection failed: ") +
                              E.what(),
                          F->name());
      }
    }
  }

  Profile = std::make_unique<ProfileBundle>(
      profileRun(M, Opts.ProfileEntry, Opts.ProfileArgs, POpts));
  if (!Profile->Completed) {
    degradeToBasic("profiling run failed (" + Profile->Error + ")");
    // The partial edge counts are still honest measurements; dependence
    // and value profiles cut off mid-run are not safe to optimize on.
    Profile->Deps.PerLoop.clear();
    Profile->Values.PerStmt.clear();
  }
}

void Compilation::stageSvp() {
  if (!wantSvp())
    return;
  CallEffects Effects = CallEffects::compute(M);
  bool AnyApplied = false;

  for (Function *F : definedFunctions()) {
    // Bounded rewrite loop: each application changes the CFG, so
    // re-analyze between applications.
    for (unsigned Round = 0; Round != 8; ++Round) {
      bool Applied = false;
      try {
      FuncAnalysis A(*F, &Profile->Edges, *Oracle);
      for (uint32_t LI = 0; LI != A.Nest.numLoops() && !Applied; ++LI) {
        const Loop *L = A.Nest.loop(LI);
        if (SvpByLoop.count({F->name(), L->Header}))
          continue; // One prediction per loop keeps this tractable.
        // SVP targets loops that would otherwise be *rejected for cost*:
        // hot, reasonably sized, trip count fine, but with a critical
        // dependence (paper Section 7.2). Applying it elsewhere only adds
        // prediction overhead to code that never speculates.
        if (!A.Counts || L->Header >= A.Counts->Block.size() ||
            A.Counts->Block[L->Header] < 16)
          continue;
        const double BodyW =
            loopDynamicWeight(M, *F, *L, A.Freq, &FuncWeights);
        if (BodyW < Opts.Selection.MinBodyWeight || BodyW > Opts.Selection.MaxBodyWeight)
          continue;
        if (A.Freq.avgTripCount(*L) < Opts.Selection.MinTripCount)
          continue;
        LoopDepGraph G = LoopDepGraph::build(M, *F, A.Cfg, A.Nest, *L,
                                             A.Freq, Effects,
                                             depGraphOptions(*F, *L));
        MisspecCostModel Model(G, Opts.ReferencePartitionEvaluation);
        PartitionSearch Search(G, Model, partitionOptions());
        PartitionResult Current = Search.run();
        if (!Current.Searched ||
            Current.Cost <= Opts.Selection.CostFraction * BodyW)
          continue; // Plain reordering already handles this loop.
        SvpOptions SOpts = Opts.Enabling.Svp;
        SOpts.PreForkSizeFraction = Opts.Selection.PreForkSizeFraction;
        auto Cands = findSvpCandidates(G, Search, Profile->Values, SOpts);
        if (Cands.empty())
          continue;
        SvpResult R = applySvp(*F, *L, Cands.front());
        if (R.Ok) {
          SvpByLoop[{F->name(), L->Header}] = true;
          Applied = true;
          AnyApplied = true;
        }
      }
      } catch (const std::exception &E) {
        Report.Diags.error(DiagStage::Svp,
                           std::string("SVP analysis failed: ") + E.what(),
                           F->name());
        break; // Give up on this function; others still get SVP.
      }
      if (!Applied)
        break;
    }
  }

  if (AnyApplied) {
    if (std::string Err = verifyModule(M); !Err.empty())
      spt_fatal("SVP broke the module");
    // Re-profile: the recovery branches' frequencies (the misprediction
    // rates) and the shifted dependence structure must be measured.
    ProfilerOptions POpts;
    POpts.CollectEdges = true;
    POpts.CollectDeps = wantDepProfiles();
    POpts.CollectValues = false;
    POpts.AttributeCalleeAccesses = Opts.Enabling.AttributeCalleeAccesses;
    POpts.MaxSteps = Opts.ProfileMaxSteps;
    POpts.RngSeed = Opts.RngSeed;
    POpts.Cancel = Opts.Cancel;
    ValueProfileData SavedValues = std::move(Profile->Values);
    Profile = std::make_unique<ProfileBundle>(
        profileRun(M, Opts.ProfileEntry, Opts.ProfileArgs, POpts));
    Profile->Values = std::move(SavedValues);
    if (!Profile->Completed) {
      // SVP already rewrote the module (semantics-preserving), so keep
      // going, but the truncated re-profile can't back further profile-
      // guided decisions.
      degradeToBasic("re-profiling after SVP failed (" + Profile->Error +
                     ")");
      Profile->Deps.PerLoop.clear();
      Profile->Values.PerStmt.clear();
    }
  }
}

void Compilation::evaluateLoopCandidate(const Function &F,
                                        const FuncAnalysis &A, const Loop &L,
                                        const CallEffects &Effects,
                                        LoopRecord &Rec, DiagnosticLog &Diags,
                                        std::set<BlockId> &Blocks) const {
  Rec.FuncName = F.name();
  Rec.Header = L.Header;
  Rec.Depth = L.Depth;
  // Cancellation point: once the request token fires, remaining
  // candidates record a cheap skip instead of running dependence/cost
  // analysis. The whole report is then marked Cancelled, so these
  // placeholder records are never compared or cached.
  if (isCancelled(Opts.Cancel)) {
    Rec.Reason = RejectReason::StageError;
    Rec.FailureDetail = "skipped: compilation cancelled";
    Diags.warn(DiagStage::Partition, Rec.FailureDetail, F.name(), L.Header);
    return;
  }
  Rec.Counted = isCountedLoop(F, L);
  auto UnrollIt = Unrolled.find({F.name(), L.Header});
  if (UnrollIt != Unrolled.end()) {
    Rec.UnrollFactor = UnrollIt->second.Factor;
    Rec.Counted = Rec.Counted || UnrollIt->second.WasCounted;
  }
  Rec.SvpApplied = SvpByLoop.count({F.name(), L.Header}) != 0;
  Rec.BodyWeight = loopDynamicWeight(M, F, L, A.Freq, &FuncWeights);
  Rec.TripCount = A.Freq.avgTripCount(L);
  if (A.Counts && L.Header < A.Counts->Block.size())
    Rec.ProfiledIterations = A.Counts->Block[L.Header];
  Rec.Work = static_cast<double>(Rec.ProfiledIterations) * Rec.BodyWeight;
  Blocks = std::set<BlockId>(L.Blocks.begin(), L.Blocks.end());

  // Selection criteria (Section 6.1), cheapest first.
  if (Rec.ProfiledIterations == 0) {
    Rec.Reason = RejectReason::NeverExecuted;
    return;
  }
  if (Rec.BodyWeight > Opts.Selection.MaxBodyWeight) {
    Rec.Reason = RejectReason::BodyTooLarge;
    return;
  }
  if (Rec.BodyWeight < Opts.Selection.MinBodyWeight) {
    Rec.Reason = RejectReason::BodyTooSmall;
    return;
  }
  if (Rec.TripCount < Opts.Selection.MinTripCount) {
    Rec.Reason = RejectReason::LowTripCount;
    return;
  }

  try {
    LoopDepGraph G = LoopDepGraph::build(M, F, A.Cfg, A.Nest, L, A.Freq,
                                         Effects, depGraphOptions(F, L));
    MisspecCostModel Model(G, Opts.ReferencePartitionEvaluation);
    PartitionSearch Search(G, Model, partitionOptions());
    Rec.Partition = Search.run();
    if (Rec.Partition.BudgetExhausted) {
      // Not a rejection by itself: the best incumbent found within the
      // budget still competes below. Record that the search was cut
      // short so the truncation is never silent.
      Rec.FailureDetail =
          "partition search budget exhausted; kept best incumbent";
      Diags.warn(DiagStage::Partition, Rec.FailureDetail, F.name(),
                 L.Header);
    }
    if (!Rec.Partition.Searched) {
      Rec.Reason = RejectReason::TooManyVcs;
      return;
    }
    if (Opts.Machine.Cores > 2)
      Rec.Kway = Search.runKway(Rec.Partition, Opts.Machine.Cores - 1);
    if (Rec.Partition.Cost > Opts.Selection.CostFraction * Rec.BodyWeight) {
      Rec.Reason = RejectReason::HighCost;
      return;
    }

    // Analytic steady-state estimate. The speculative thread executes
    // one whole iteration serially, so its leg is bounded below by the
    // iteration's dependence critical path; the sequential core instead
    // overlaps consecutive iterations up to its issue bandwidth. A pair
    // of iterations costs 2 * seqIter sequentially versus
    // pre-fork + spec-leg + overheads + expected re-execution under SPT.
    double CriticalPath = 0.0;
    {
      std::vector<double> Longest(G.size(), 0.0);
      // Statements are in RPO order; intra edges are forward except
      // through inner back edges, which a longest-path estimate may
      // safely ignore.
      for (uint32_t SI = 0; SI != G.size(); ++SI) {
        double Here =
            Longest[SI] + weightOfStmtImpl(M, G.stmt(SI), FuncWeights);
        CriticalPath = std::max(CriticalPath, Here);
        for (uint32_t EI : G.outEdges(SI)) {
          const DepEdge &DE = G.edges()[EI];
          if (!DE.Cross && isFlowDep(DE.Kind) && DE.Dst > SI)
            Longest[DE.Dst] = std::max(Longest[DE.Dst], Here);
        }
      }
    }
    const double SeqIter =
        std::max(Rec.BodyWeight * 0.55, CriticalPath * 0.8);
    const double SpecLeg = std::max(Rec.BodyWeight * 0.5, CriticalPath);
    if (Opts.Machine.Cores == 2) {
      const double ParPair = Rec.Partition.PreForkWeight + SpecLeg +
                             Opts.Machine.ForkOverheadWeight +
                             Opts.Machine.CommitOverheadWeight +
                             Opts.Machine.JoinSerializationWeight +
                             Rec.Partition.Cost;
      Rec.GainEstimate = (2.0 * SeqIter) / ParPair;
    } else {
      // Chained machine: each of the C-1 speculative threads pays its
      // fork, commit, serial prefix and expected re-execution; the group
      // of C iterations otherwise overlaps down to one speculative leg.
      // At C=1 the group degenerates to no overlap at all, so the
      // estimate falls below the gain floor and the loop is rejected —
      // speculation is off on a one-core machine.
      const double C = static_cast<double>(Opts.Machine.Cores);
      const double ParGroup =
          (C - 1.0) * (Rec.Partition.PreForkWeight +
                       Opts.Machine.ForkOverheadWeight +
                       Opts.Machine.CommitOverheadWeight +
                       Rec.Partition.Cost) +
          Opts.Machine.JoinSerializationWeight + SpecLeg;
      Rec.GainEstimate = (C * SeqIter) / ParGroup;
    }
    if (Rec.GainEstimate <= Opts.Selection.MinGainEstimate) {
      Rec.Reason = RejectReason::NoGain;
      return;
    }

    Rec.Reason = RejectReason::Selected;
  } catch (const std::exception &E) {
    Rec.Reason = RejectReason::StageError;
    Rec.FailureDetail =
        std::string("pass-1 dependence/partition analysis failed: ") +
        E.what();
    Diags.error(DiagStage::Partition, Rec.FailureDetail, F.name(), L.Header);
  }
}

void Compilation::passOne() {
  const auto PassStart = std::chrono::steady_clock::now();
  CallEffects Effects = CallEffects::compute(M);

  // Evaluate the loop candidates in deterministic order (function order,
  // then loop index), sharing one analysis per function.
  uint64_t Candidates = 0;
  for (Function *F : definedFunctions()) {
    const FuncAnalysis A(*F, &Profile->Edges, *Oracle);
    for (uint32_t LI = 0; LI != A.Nest.numLoops(); ++LI) {
      const Loop &L = *A.Nest.loop(LI);
      ObsSpan S(Obs, Obs ? "pass1.loop " + F->name() + ":" +
                               std::to_string(L.Header)
                         : std::string());
      evaluateLoopCandidate(*F, A, L, Effects, Report.Loops.emplace_back(),
                            Report.Diags, LoopBlocks[{F->name(), L.Header}]);
      ++Candidates;
    }
  }
  obsAdd(Obs, "driver.pass1.candidates", Candidates);
  Report.PassOneSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    PassStart)
          .count();
}

void Compilation::passTwo() {
  // Rank tentative selections by expected absolute benefit.
  std::vector<size_t> Order;
  for (size_t I = 0; I != Report.Loops.size(); ++I)
    if (Report.Loops[I].Reason == RejectReason::Selected)
      Order.push_back(I);
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    const LoopRecord &RA = Report.Loops[A];
    const LoopRecord &RB = Report.Loops[B];
    const double BA = RA.Work * (RA.GainEstimate - 1.0);
    const double BB = RB.Work * (RB.GainEstimate - 1.0);
    if (BA != BB)
      return BA > BB;
    return A < B;
  });

  // Resolve overlaps within a function: a loop nested in (or containing)
  // an already-picked loop loses.
  std::map<std::string, std::vector<BlockId>> PickedHeaders;
  std::vector<size_t> Picked;
  for (size_t I : Order) {
    LoopRecord &Rec = Report.Loops[I];
    const auto &Blocks = LoopBlocks[{Rec.FuncName, Rec.Header}];
    bool Overlaps = false;
    for (BlockId Other : PickedHeaders[Rec.FuncName]) {
      const auto &OtherBlocks = LoopBlocks[{Rec.FuncName, Other}];
      if (Blocks.count(Other) || OtherBlocks.count(Rec.Header))
        Overlaps = true;
    }
    if (Overlaps) {
      Rec.Reason = RejectReason::Nested;
      continue;
    }
    PickedHeaders[Rec.FuncName].push_back(Rec.Header);
    Picked.push_back(I);
  }
  obsAdd(Obs, "driver.pass2.tentative", Order.size());
  obsAdd(Obs, "driver.pass2.overlap_rejected", Order.size() - Picked.size());

  // Final partition + transformation, assigning SPT loop ids.
  CallEffects Effects = CallEffects::compute(M);
  int64_t NextLoopId = 1;
  for (size_t I : Picked) {
    LoopRecord &Rec = Report.Loops[I];
    // Each transform is atomic per loop, so stopping between loops
    // leaves the module verifiable; cleanup/verify below still run.
    if (isCancelled(Opts.Cancel)) {
      Rec.Reason = RejectReason::StageError;
      Rec.FailureDetail = "skipped: compilation cancelled";
      Report.Diags.warn(DiagStage::Transform, Rec.FailureDetail,
                        Rec.FuncName, Rec.Header);
      continue;
    }
    Function *F = M.findFunction(Rec.FuncName);
    try {
    FuncAnalysis A(*F, &Profile->Edges, *Oracle);
    const Loop *L = A.loopByHeader(Rec.Header);
    if (!L) {
      Rec.Reason = RejectReason::TransformFailed;
      Rec.FailureDetail = "loop disappeared before transformation";
      Report.Diags.error(DiagStage::Transform, Rec.FailureDetail,
                         Rec.FuncName, Rec.Header);
      continue;
    }
    LoopDepGraph G = LoopDepGraph::build(M, *F, A.Cfg, A.Nest, *L, A.Freq,
                                         Effects, depGraphOptions(*F, *L));
    MisspecCostModel Model(G, Opts.ReferencePartitionEvaluation);
    PartitionResult P = PartitionSearch(G, Model, partitionOptions()).run();
    if (P.BudgetExhausted) {
      Rec.FailureDetail =
          "partition search budget exhausted; kept best incumbent";
      Report.Diags.warn(DiagStage::Partition, Rec.FailureDetail,
                        Rec.FuncName, Rec.Header);
    }
    if (!P.Searched) {
      Rec.Reason = RejectReason::TransformFailed;
      Rec.FailureDetail = "final partition search found no valid partition";
      Report.Diags.error(DiagStage::Transform, Rec.FailureDetail,
                         Rec.FuncName, Rec.Header);
      continue;
    }
    SptTransformResult T = applySptTransform(M, *F, A.Cfg, *L, G,
                                             P.InPreFork, NextLoopId);
    if (!T.Ok) {
      Rec.Reason = RejectReason::TransformFailed;
      Rec.FailureDetail = T.Error;
      Report.Diags.error(DiagStage::Transform, T.Error, Rec.FuncName,
                         Rec.Header);
      continue;
    }
    Rec.Partition = std::move(P);
    Rec.Selected = true;
    Rec.SptLoopId = NextLoopId;
    Rec.NumCarriedRegs = T.NumCarriedRegs;
    Rec.NumMovedStmts = T.NumMovedStmts;
    Report.SptLoops[NextLoopId] = SptLoopDesc{F, T.PreForkEntry};
    obsAdd(Obs, "driver.pass2.transformed", 1);
    ++NextLoopId;
    } catch (const std::exception &E) {
      // applySptTransform only mutates the function once its dominance
      // and routing preconditions hold, so an exception here leaves the
      // loop untransformed; skip it and keep the module usable.
      Rec.Reason = RejectReason::StageError;
      Rec.FailureDetail =
          std::string("pass-2 transformation failed: ") + E.what();
      Report.Diags.error(DiagStage::Transform, Rec.FailureDetail,
                         Rec.FuncName, Rec.Header);
    }
  }

  for (Function *F : definedFunctions())
    cleanupFunction(*F);
  // Cleanup may thread jumps through a restore block that carried no
  // copies; follow such chains so the recorded iteration boundary matches
  // where the back edges now land.
  for (auto &[Id, Desc] : Report.SptLoops) {
    (void)Id;
    BlockId Cur = Desc.PreForkEntry;
    for (int Hops = 0; Hops != 16; ++Hops) {
      const BasicBlock *BB = Desc.F->block(Cur);
      if (BB->Instrs.size() == 1 && BB->Instrs[0].Op == Opcode::Jmp)
        Cur = BB->Succs[0];
      else
        break;
    }
    Desc.PreForkEntry = Cur;
  }
  if (std::string Err = verifyModule(M); !Err.empty())
    spt_fatal("SPT compilation broke the module");
}

CompilationReport Compilation::run() {
  {
  ObsSpan CompileSpan(Obs, "compile");
  Report.Mode = Opts.Mode;
  Report.EffectiveMode = Opts.Mode;
  Report.Cores = Opts.Machine.Cores;
  // Validate external profile data against the pristine module: stage A
  // reshapes functions, and counts collected before compilation can only
  // be checked against the shapes they were collected on.
  if (Opts.ExternalProfile)
    validateExternalProfile();
  FuncWeights = computeFunctionWeights(M, *Oracle);
  // Stage boundaries double as cancellation points. Once the token
  // fires, every remaining stage is skipped — in particular passOne and
  // passTwo require stage B's Profile, so a cancellation before or
  // during profiling must short-circuit them.
  auto Cancelled = [this] { return isCancelled(Opts.Cancel); };
  if (!Cancelled()) {
    ObsSpan S(Obs, "stageA.unroll");
    stageUnroll();
    FuncWeights = computeFunctionWeights(M, *Oracle); // Unrolling grew some bodies.
  }
  if (!Cancelled()) {
    ObsSpan S(Obs, "stageB.profile");
    stageProfile();
  }
  if (!Cancelled() && Profile) {
    ObsSpan S(Obs, "stageC.svp");
    stageSvp();
  }
  if (!Cancelled() && Profile) {
    ObsSpan S(Obs, "pass1");
    passOne();
  }
  if (!Cancelled() && Profile) {
    ObsSpan S(Obs, "pass2");
    passTwo();
  }
  Report.Cancelled = Cancelled();
  obsAdd(Obs, "driver.compilations", 1);
  obsAdd(Obs, "driver.degraded", Report.Degraded ? 1 : 0);
  obsAdd(Obs, "driver.cancelled", Report.Cancelled ? 1 : 0);
  } // Close the "compile" span so the snapshot below includes it.
  if (Obs)
    Report.Stats = Obs->snapshot();
  return Report;
}

} // namespace

CompilationReport spt::compileSpt(Module &M, const SptCompilerOptions &Opts) {
  Compilation C(M, Opts);
  return C.run();
}

namespace {

void appendDouble(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
}

} // namespace

std::string spt::renderReportDeterministic(const CompilationReport &Report) {
  std::string Out;
  Out += "mode=";
  Out += compilationModeName(Report.Mode);
  Out += " effective=";
  Out += compilationModeName(Report.EffectiveMode);
  Out += " degraded=";
  Out += Report.Degraded ? '1' : '0';
  // Historical (paper-machine) reports never mentioned the core count;
  // emitting it only off the default keeps two-core renders byte-stable.
  if (Report.Cores != 2)
    Out += " cores=" + std::to_string(Report.Cores);
  Out += '\n';

  for (const LoopRecord &R : Report.Loops) {
    Out += "loop ";
    Out += R.FuncName;
    Out += ':';
    Out += std::to_string(R.Header);
    Out += " depth=" + std::to_string(R.Depth);
    Out += " counted=";
    Out += R.Counted ? '1' : '0';
    Out += " unroll=" + std::to_string(R.UnrollFactor);
    Out += " svp=";
    Out += R.SvpApplied ? '1' : '0';
    Out += " bodyWeight=";
    appendDouble(Out, R.BodyWeight);
    Out += " tripCount=";
    appendDouble(Out, R.TripCount);
    Out += " iters=" + std::to_string(R.ProfiledIterations);
    Out += " work=";
    appendDouble(Out, R.Work);
    Out += " gain=";
    appendDouble(Out, R.GainEstimate);
    Out += " reason=\"";
    Out += rejectReasonName(R.Reason);
    Out += "\" detail=\"" + R.FailureDetail + "\"";
    Out += " selected=";
    Out += R.Selected ? '1' : '0';
    Out += " sptId=" + std::to_string(R.SptLoopId);
    Out += " carried=" + std::to_string(R.NumCarriedRegs);
    Out += " moved=" + std::to_string(R.NumMovedStmts);
    Out += '\n';

    const PartitionResult &P = R.Partition;
    Out += "  partition searched=";
    Out += P.Searched ? '1' : '0';
    Out += " exhausted=";
    Out += P.BudgetExhausted ? '1' : '0';
    Out += " cost=";
    appendDouble(Out, P.Cost);
    Out += " preForkWeight=";
    appendDouble(Out, P.PreForkWeight);
    Out += " bodyWeight=";
    appendDouble(Out, P.BodyWeight);
    Out += " nodes=" + std::to_string(P.NodesVisited);
    Out += " sizePrunes=" + std::to_string(P.SizePrunes);
    Out += " lbPrunes=" + std::to_string(P.LowerBoundPrunes);
    Out += " costEvals=" + std::to_string(P.CostEvals);
    Out += " vcs=" + std::to_string(P.NumViolationCandidates);
    Out += " chosen=[";
    for (size_t I = 0; I != P.ChosenVcs.size(); ++I) {
      if (I)
        Out += ',';
      Out += std::to_string(P.ChosenVcs[I]);
    }
    Out += "] preFork=[";
    bool First = true;
    for (size_t I = 0; I != P.InPreFork.size(); ++I)
      if (P.InPreFork[I]) {
        if (!First)
          Out += ',';
        Out += std::to_string(I);
        First = false;
      }
    Out += "]\n";

    if (Report.Cores != 2) {
      const KwayPartitionResult &K = R.Kway;
      Out += "  kway searched=";
      Out += K.Searched ? '1' : '0';
      Out += " levels=" + std::to_string(K.Levels);
      Out += " chainCost=";
      appendDouble(Out, K.ChainCost);
      Out += " nodes=" + std::to_string(K.NodesVisited);
      Out += " costEvals=" + std::to_string(K.CostEvals);
      Out += '\n';
      for (size_t CI = 0; CI != K.Cuts.size(); ++CI) {
        const KwayCutRecord &Cut = K.Cuts[CI];
        Out += "    cut " + std::to_string(CI + 1);
        Out += " cost=";
        appendDouble(Out, Cut.Cost);
        Out += " preForkWeight=";
        appendDouble(Out, Cut.PreForkWeight);
        Out += " objective=";
        appendDouble(Out, Cut.Objective);
        Out += " chosen=[";
        for (size_t I = 0; I != Cut.ChosenVcs.size(); ++I) {
          if (I)
            Out += ',';
          Out += std::to_string(Cut.ChosenVcs[I]);
        }
        Out += "]\n";
      }
    }
  }

  Out += "sptLoops=[";
  bool First = true;
  for (const auto &[Id, Desc] : Report.SptLoops) {
    if (!First)
      Out += ' ';
    Out += std::to_string(Id) + ":" + Desc.F->name() + ":" +
           std::to_string(Desc.PreForkEntry);
    First = false;
  }
  Out += "]\n";
  Out += "diagnostics:\n";
  Out += Report.Diags.renderAll();
  return Out;
}

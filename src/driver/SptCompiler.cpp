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
#include "cost/CostModel.h"
#include "ir/Verifier.h"
#include "profile/DepProfiler.h"
#include "profile/Profiler.h"
#include "support/Debug.h"
#include "transform/Cleanup.h"
#include "transform/SptTransform.h"
#include "transform/Unroll.h"

#include <algorithm>
#include <cassert>
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

/// Structural + frequency analyses of one function's body, using measured
/// edge counts when available. The driver keeps one static (no profile)
/// and one measured analysis per function, each reused until the body or
/// the profile changes (Compilation::analysis).
struct FuncAnalysis {
  CfgInfo Cfg;
  LoopNest Nest;
  /// The raw edge counts, whether or not blockFrequencies used them:
  /// downstream guards (SVP sampling, trip-count reporting) apply their
  /// own shape checks.
  const FunctionEdgeCounts *Counts = nullptr;
  FreqInfo Freq;

  FuncAnalysis(const Function &F, const EdgeProfileData *Prof)
      : Cfg(CfgInfo::compute(F)), Nest(LoopNest::compute(F, Cfg)),
        Counts(Prof ? Prof->countsFor(&F) : nullptr),
        Freq(blockFrequencies(F, Cfg, Nest, Counts).Freq) {}

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
/// tiny. \p Freqs holds each function's static block frequencies, indexed
/// like the module's functions; a null entry (a declaration or a function
/// without blocks) weighs one call. The frequencies do not change between
/// rounds.
std::map<const Function *, double>
computeFunctionWeights(const Module &M,
                       const std::vector<const FreqInfo *> &Freqs) {
  std::map<const Function *, double> Weights;
  constexpr double Clamp = 1e7;
  for (int Round = 0; Round != 6; ++Round) {
    for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
      const Function *F = M.function(static_cast<uint32_t>(FI));
      if (!Freqs[FI]) {
        Weights[F] = opClassWeight(OpClass::Call);
        continue;
      }
      const FreqInfo &Freq = *Freqs[FI];
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

/// A digest of a function body's shape: each block's size and successors
/// and every statement id. Every rewrite the driver makes changes it, so
/// the analysis cache checks it to catch a rewrite that skipped
/// Compilation::willRewrite.
[[maybe_unused]] uint64_t bodyShape(const Function &F) {
  uint64_t H = 0xcbf29ce484222325ull;
  const auto Mix = [&H](uint64_t V) { H = (H ^ V) * 0x100000001b3ull; };
  for (const auto &BB : F) {
    Mix(BB->Instrs.size());
    for (BlockId S : BB->Succs)
      Mix(S);
    for (const Instr &I : BB->Instrs)
      Mix(I.Id);
  }
  return H;
}

/// One compilation run's mutable state.
class Compilation {
public:
  Compilation(Module &M, const SptCompilerOptions &Opts)
      : M(M), Opts(Opts), FuncStates(M.numFunctions()) {
    if (Opts.Observability.Enabled) {
      if (Opts.Observability.Context)
        Obs = Opts.Observability.Context;
      else {
        OwnedObs = std::make_unique<ObsContext>();
        Obs = OwnedObs.get();
      }
    }
    indexMeasuredLoops();
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
  /// profiles, no SVP) with a diagnostic. Idempotent; used when a
  /// profiling run fails.
  void degradeToBasic(const std::string &Why) {
    Report.Degraded = true;
    Report.EffectiveMode = CompilationMode::Basic;
    Report.Diags.warn(DiagStage::Profile,
                      Why + "; degrading to Basic-mode semantics "
                            "(type-based aliasing, dependence profiles and "
                            "SVP disabled)");
    DegradedToBasic = true;
    ++ProfileGen; // Graphs built under the Best/Anticipated options are stale.
  }

  /// Installs \p P as the profile every later stage reads; analyses and
  /// plans built under the previous one are stale.
  void setProfile(std::unique_ptr<ProfileBundle> P) {
    Profile = std::move(P);
    ++ProfileGen;
  }

  /// Marks \p F's body as about to be rewritten, so its cached analyses
  /// and plans go stale. Every rewrite the driver makes calls it first.
  void willRewrite(const Function &F) { ++FuncStates[F.index()].Version; }

  /// The static (\p Measured false: no profile) or measured analysis of
  /// \p F's current body, reused while neither the body nor, for the
  /// measured one, the profile has changed since it was built. The
  /// reference stays valid until the next call for the same function and
  /// kind.
  const FuncAnalysis &analysis(const Function &F, bool Measured) {
    FuncState &S = FuncStates[F.index()];
    CachedAnalysis &C = Measured ? S.Measured : S.Static;
    const uint64_t Gen = Measured ? ProfileGen : 0;
    if (!C.A || C.Version != S.Version || C.ProfileGen != Gen) {
      C.A = std::make_unique<FuncAnalysis>(
          F, Measured ? &Profile->Edges : nullptr);
      C.Version = S.Version;
      C.ProfileGen = Gen;
      C.Shape = bodyShape(F);
    }
    assert(C.Shape == bodyShape(F) && "function rewritten without willRewrite");
    return *C.A;
  }
  const FuncAnalysis &staticAnalysis(const Function &F) {
    return analysis(F, false);
  }
  const FuncAnalysis &measuredAnalysis(const Function &F) {
    return analysis(F, true);
  }
  /// Frees the static analyses: nothing reads them after stage B's value
  /// watch, and the profile run should not carry them.
  void dropStaticAnalyses() {
    for (FuncState &S : FuncStates)
      S.Static.A.reset();
  }
  /// Asserts that every analysis still current by its function's version
  /// describes that function's body; run after the last rewrite.
  void checkAnalysesCurrent() const {
    for (size_t I = 0; I != FuncStates.size(); ++I) {
      const FuncState &S = FuncStates[I];
      for (const CachedAnalysis *C : {&S.Static, &S.Measured})
        assert((!C->A || C->Version != S.Version ||
                C->Shape == bodyShape(*M.function(static_cast<uint32_t>(I)))) &&
               "function rewritten without willRewrite");
    }
  }

  /// One loop's dependence graph and base partition (the optimal
  /// partition of Section 5), built once per version of its function's
  /// body and profile generation. No search is kept: its scratch trails
  /// would outlive the stage (peak RSS), so a caller that needs one builds
  /// it over G.
  struct LoopPlan {
    LoopDepGraph G;
    PartitionResult Base;
    uint64_t Version = 0;
    uint64_t ProfileGen = 0;
  };
  using LoopKey = std::pair<std::string, BlockId>;

  LoopPlan &plan(const Function &F, const FuncAnalysis &A, const Loop &L,
                 const CallEffects &Effects);

  /// Indexes the loops of Opts.Analysis.Profile by function, once per
  /// compile. An artifact measured on a different module is ignored with
  /// a diagnostic.
  void indexMeasuredLoops() {
    const DepProfileArtifact *A = Opts.Analysis.Profile.get();
    if (!A)
      return;
    if (A->ModuleHash != moduleReprintHash(M)) {
      const std::string From =
          Opts.Analysis.ProfilePath.empty()
              ? std::string("artifact")
              : "artifact '" + Opts.Analysis.ProfilePath + "'";
      Report.Diags.warn(DiagStage::Profile,
                        "measured dependence " + From +
                            " was built from a different module; ignoring "
                            "its measurements");
      return;
    }
    MeasuredLoops.resize(M.numFunctions());
    for (const DepArtifactLoop &L : A->Loops)
      if (const Function *F = M.findFunction(L.Func))
        MeasuredLoops[F->index()].push_back({L.Header, &L.Profile});
  }

  /// The artifact's record of \p L, or null: when no artifact applies,
  /// when it never observed the loop, or when stage A unrolled the loop
  /// after the measurement (the clones carry statement ids the artifact
  /// never saw, and its per-iteration counts describe the old body).
  const LoopDepProfileData *measuredFor(const Function &F,
                                        const Loop &L) const {
    if (MeasuredLoops.empty())
      return nullptr;
    for (const auto &[Header, P] : MeasuredLoops[F.index()])
      if (Header == L.Header)
        return Unrolled.count({F.name(), L.Header}) ? nullptr : P;
    return nullptr;
  }

  DepGraphOptions depGraphOptions(const Function &F, const Loop &L) const {
    DepGraphOptions DG;
    DG.Measured = measuredFor(F, L);
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

  /// Builds the dependence graph of \p L with this compilation's
  /// options, counting the build.
  LoopDepGraph buildGraph(const Function &F, const FuncAnalysis &A,
                          const Loop &L, const CallEffects &Effects) const {
    obsAdd(Obs, "driver.depgraph.builds", 1);
    return LoopDepGraph::build(M, F, A.Cfg, L, A.Freq, Effects,
                               depGraphOptions(F, L));
  }

  /// computeFunctionWeights over the static analyses, under its own span.
  std::map<const Function *, double> functionWeights() {
    ObsSpan S(Obs, "driver.function_weights");
    std::vector<const FreqInfo *> Freqs(M.numFunctions(), nullptr);
    for (Function *F : definedFunctions())
      Freqs[F->index()] = &staticAnalysis(*F).Freq;
    return computeFunctionWeights(M, Freqs);
  }

  PartitionOptions partitionOptions() const {
    PartitionOptions P;
    P.PreForkSizeFraction = Opts.Selection.PreForkSizeFraction;
    P.MaxViolationCandidates = Opts.Selection.MaxViolationCandidates;
    P.MaxSearchSeconds = Opts.MaxPartitionSeconds;
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
                             std::set<BlockId> &Blocks);
  void passTwo();

  Module &M;
  const SptCompilerOptions &Opts;
  /// Null when observability is disabled; counters and spans all check.
  ObsContext *Obs = nullptr;
  std::unique_ptr<ObsContext> OwnedObs;
  CompilationReport Report;
  /// Per function, indexed by Function::index(): (header, record) of each
  /// loop the artifact measured. Empty when no artifact applies.
  std::vector<std::vector<std::pair<BlockId, const LoopDepProfileData *>>>
      MeasuredLoops;
  std::unique_ptr<ProfileBundle> Profile;
  /// Bumped whenever Profile is replaced or the run degrades to Basic.
  uint64_t ProfileGen = 0;
  /// A cached analysis and the function version and profile generation it
  /// was built under.
  struct CachedAnalysis {
    std::unique_ptr<FuncAnalysis> A;
    uint64_t Version = 0;
    uint64_t ProfileGen = 0;
    uint64_t Shape = 0; ///< bodyShape when built.
  };
  /// Per function, indexed by Function::index(): Version counts the
  /// rewrites of its body (willRewrite), plus its cached analyses.
  struct FuncState {
    uint64_t Version = 0;
    CachedAnalysis Static, Measured;
  };
  std::vector<FuncState> FuncStates;
  /// Loop plans by (function name, header); freed once pass 1 rejects the
  /// loop or pass 2 has resolved it.
  std::map<LoopKey, LoopPlan> Plans;
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

/// The plan of \p L, analysed as \p A (F's cached measured analysis):
/// the cached one when it is still current, else a new one, which
/// replaces it in the cache. A graph depends on its function, the stage's
/// CallEffects, FuncWeights and Unrolled (both fixed after stage A) and
/// Profile. CallEffects changes only when SVP rewrites a function, and the
/// re-profile that follows replaces Profile, so the version and generation
/// cover every input. A new plan is stamped with A's version, not F's: it
/// points into A's loop nest and F's instructions, so it must go stale as
/// soon as A does, even after a rewrite attempt that changed nothing.
Compilation::LoopPlan &Compilation::plan(const Function &F,
                                         const FuncAnalysis &A, const Loop &L,
                                         const CallEffects &Effects) {
  const FuncState &S = FuncStates[F.index()];
  assert(S.Measured.A.get() == &A && "plans use the cached measured analysis");
  LoopKey Key{F.name(), L.Header};
  auto It = Plans.find(Key);
  if (It != Plans.end() && It->second.Version == S.Version &&
      It->second.ProfileGen == ProfileGen) {
    obsAdd(Obs, "driver.plans.reused", 1);
    return It->second;
  }
  LoopPlan P;
  P.G = buildGraph(F, A, L, Effects);
  {
    MisspecCostModel Model(P.G);
    P.Base = PartitionSearch(P.G, Model, partitionOptions()).run();
  }
  P.Version = S.Measured.Version;
  P.ProfileGen = S.Measured.ProfileGen;
  return Plans.insert_or_assign(std::move(Key), std::move(P)).first->second;
}

void Compilation::stageUnroll() {
  for (Function *F : definedFunctions()) {
    // Gather candidate headers innermost-first from a snapshot.
    std::vector<BlockId> Headers;
    for (const Loop *L : staticAnalysis(*F).Nest.innermostFirst())
      Headers.push_back(L->Header);
    for (BlockId Header : Headers) {
      try {
        const FuncAnalysis &A = staticAnalysis(*F);
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
        willRewrite(*F);
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

void Compilation::stageProfile() {
  ProfilerOptions POpts;
  POpts.CollectEdges = true;
  POpts.CollectDeps = wantDepProfiles();
  POpts.CollectValues = wantSvp();
  POpts.MaxSteps = Opts.ProfileMaxSteps;
  POpts.RngSeed = Opts.RngSeed;
  POpts.Cancel = Opts.Cancel;

  if (wantSvp()) {
    // Watch every Int-typed, register-defining violation candidate (found
    // with static probabilities) for value patterns.
    ObsSpan S(Obs, "driver.value_watch");
    CallEffects Effects = CallEffects::compute(M);
    for (Function *F : definedFunctions()) {
      try {
        const FuncAnalysis &A = staticAnalysis(*F);
        for (uint32_t LI = 0; LI != A.Nest.numLoops(); ++LI) {
          const Loop *L = A.Nest.loop(LI);
          for (StmtId Id : LoopDepGraph::valueWatchCandidates(
                   M, *F, A.Cfg, *L, A.Freq, Effects,
                   depGraphOptions(*F, *L)))
            POpts.ValueWatch.insert({F, Id});
        }
      } catch (const std::exception &E) {
        Report.Diags.warn(DiagStage::Profile,
                          std::string("value-watch collection failed: ") +
                              E.what(),
                          F->name());
      }
    }
  }
  obsAdd(Obs, "driver.value_watch.stmts", POpts.ValueWatch.size());

  dropStaticAnalyses();
  setProfile(std::make_unique<ProfileBundle>(
      profileRun(M, Opts.ProfileEntry, Opts.ProfileArgs, POpts)));
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
      const FuncAnalysis &A = measuredAnalysis(*F);
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
        const LoopPlan &P = plan(*F, A, *L, Effects);
        if (!P.Base.Searched ||
            P.Base.Cost <= Opts.Selection.CostFraction * BodyW)
          continue; // Plain reordering already handles this loop.
        SvpOptions SOpts = Opts.Enabling.Svp;
        SOpts.PreForkSizeFraction = Opts.Selection.PreForkSizeFraction;
        MisspecCostModel Model(P.G);
        PartitionSearch Search(P.G, Model, partitionOptions());
        auto Cands = findSvpCandidates(P.G, Search, Profile->Values, SOpts);
        if (Cands.empty())
          continue;
        willRewrite(*F);
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
    // rates) and the shifted dependence structure must be measured. Its
    // own span bills it to the profiler, so stageC.svp's self time is
    // SVP's alone.
    ObsSpan S(Obs, "profile.reprofile");
    ProfilerOptions POpts;
    POpts.CollectEdges = true;
    POpts.CollectDeps = wantDepProfiles();
    POpts.CollectValues = false;
    POpts.MaxSteps = Opts.ProfileMaxSteps;
    POpts.RngSeed = Opts.RngSeed;
    POpts.Cancel = Opts.Cancel;
    ValueProfileData SavedValues = std::move(Profile->Values);
    setProfile(std::make_unique<ProfileBundle>(
        profileRun(M, Opts.ProfileEntry, Opts.ProfileArgs, POpts)));
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
                                        std::set<BlockId> &Blocks) {
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
    const LoopPlan &P = plan(F, A, L, Effects);
    const LoopDepGraph &G = P.G;
    Rec.Partition = P.Base;
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
    if (Opts.Machine.Cores > 2) {
      MisspecCostModel Model(G);
      Rec.Kway = PartitionSearch(G, Model, partitionOptions())
                     .runKway(Rec.Partition, Opts.Machine.Cores - 1);
    }
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
    const FuncAnalysis &A = measuredAnalysis(*F);
    for (uint32_t LI = 0; LI != A.Nest.numLoops(); ++LI) {
      const Loop &L = *A.Nest.loop(LI);
      ObsSpan S(Obs, Obs ? "pass1.loop " + F->name() + ":" +
                               std::to_string(L.Header)
                         : std::string());
      LoopRecord &Rec = Report.Loops.emplace_back();
      evaluateLoopCandidate(*F, A, L, Effects, Rec, Report.Diags,
                            LoopBlocks[{F->name(), L.Header}]);
      if (Rec.Reason != RejectReason::Selected)
        Plans.erase({F->name(), L.Header}); // Pass 2 will not transform it.
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
      Plans.erase({Rec.FuncName, Rec.Header});
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
    const FuncAnalysis &A = measuredAnalysis(*F);
    const Loop *L = A.loopByHeader(Rec.Header);
    if (!L) {
      Rec.Reason = RejectReason::TransformFailed;
      Rec.FailureDetail = "loop disappeared before transformation";
      Report.Diags.error(DiagStage::Transform, Rec.FailureDetail,
                         Rec.FuncName, Rec.Header);
      continue;
    }
    // Pass 1's plan, unless an earlier transform rewrote this function.
    // Pass 2 uses each plan once, so it leaves the cache here.
    LoopPlan Plan = std::move(plan(*F, A, *L, Effects));
    Plans.erase({Rec.FuncName, Rec.Header});
    PartitionResult &P = Plan.Base;
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
    willRewrite(*F);
    SptTransformResult T = applySptTransform(M, *F, A.Cfg, *L, Plan.G,
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

  for (Function *F : definedFunctions()) {
    willRewrite(*F);
    cleanupFunction(*F);
  }
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
  checkAnalysesCurrent();
}

CompilationReport Compilation::run() {
  {
  ObsSpan CompileSpan(Obs, "compile");
  Report.Mode = Opts.Mode;
  Report.EffectiveMode = Opts.Mode;
  Report.Cores = Opts.Machine.Cores;
  FuncWeights = functionWeights();
  // Stage boundaries double as cancellation points. Once the token
  // fires, every remaining stage is skipped — in particular passOne and
  // passTwo require stage B's Profile, so a cancellation before or
  // during profiling must short-circuit them.
  auto Cancelled = [this] { return isCancelled(Opts.Cancel); };
  if (!Cancelled()) {
    ObsSpan S(Obs, "stageA.unroll");
    stageUnroll();
    FuncWeights = functionWeights(); // Unrolling grew some bodies.
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

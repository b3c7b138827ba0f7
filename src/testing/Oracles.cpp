//===- testing/Oracles.cpp - Differential oracle catalogue -----------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "testing/Oracles.h"

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "profile/DepProfiler.h"
#include "cost/CostModel.h"
#include "interp/Interp.h"
#include "ir/IR.h"
#include "ir/Verifier.h"
#include "lang/AstPrinter.h"
#include "lang/Frontend.h"
#include "lang/Parser.h"
#include "partition/Partition.h"
#include "serve/BatchCompileServer.h"
#include "serve/CompileCache.h"
#include "sim/FaultInjector.h"
#include "sim/SeqSim.h"
#include "sim/SptSim.h"
#include "support/Hash.h"
#include "support/Random.h"
#include "testing/Mutator.h"
#include "testing/ProfileDump.h"
#include "testing/ReferenceInterp.h"
#include "testing/ReferencePlanner.h"
#include "testing/ReferenceProfiler.h"
#include "testing/ReferenceSptSim.h"
#include "testing/StepSink.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

using namespace spt;

namespace {

constexpr CompilationMode kModes[] = {CompilationMode::Basic,
                                      CompilationMode::Best,
                                      CompilationMode::Anticipated};

/// Feature-id encoding: category in the high 16 bits, payload below.
enum FeatureCategory : uint32_t {
  FeatReject = 1,   ///< Payload: RejectReason.
  FeatDiag = 2,     ///< Payload: DiagStage * 4 + DiagSeverity.
  FeatSelected = 3, ///< Payload: mode * 8 + min(selected loops, 7).
  FeatShape = 4,    ///< Payload: loop-shape flag (see featureName).
  FeatVcs = 5,      ///< Payload: violation-candidate count bucket.
  FeatDegrade = 6,  ///< Payload: 0 = degraded, 1 = budget exhausted.
  FeatSteps = 7,    ///< Payload: log2 bucket of baseline instruction count.
};

uint32_t feat(FeatureCategory Cat, uint32_t Payload) {
  return (static_cast<uint32_t>(Cat) << 16) | (Payload & 0xffffu);
}

uint32_t bucketOf(uint64_t N) {
  uint32_t B = 0;
  while (N > 1) {
    N >>= 1;
    ++B;
  }
  return B;
}

/// Baseline interpretation with architectural-state capture (runFunction
/// does not expose the memory hash or termination).
struct InterpRun {
  bool Done = false;
  Value Result;
  std::string Output;
  uint64_t MemHash = 0;
  uint64_t Steps = 0;
};

InterpRun interpWithHash(const Module &M, uint64_t MaxSteps,
                         uint64_t RngSeed) {
  InterpRun R;
  const Function *F = M.findFunction("main");
  if (!F)
    return R;
  InterpOptions IO;
  IO.RngSeed = RngSeed;
  Interpreter I(M, IO);
  I.startCall(F, {});
  R.Steps = I.run(MaxSteps);
  R.Done = I.done();
  if (R.Done) {
    R.Result = I.returnValue();
    R.Output = I.output();
    R.MemHash = I.memoryHash();
  }
  return R;
}

bool bitEq(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Everything compiled once and shared by all oracles: the baseline
/// (untransformed) module and its reference runs, plus one transformed
/// module + report per compilation mode.
struct Prepared {
  std::string BaseSource;
  std::string PipelineSource; ///< Differs only under InjectKnownBad.
  uint64_t SimSeed = 0;
  uint64_t CompilerSeed = 0;

  std::unique_ptr<Module> BaseM;
  InterpRun Baseline;
  SeqSimResult SeqRef;
  bool HaveSeqRef = false;
  /// One profileRun of BaseM, for the graph oracles' profiled pass; null
  /// when no graph oracle runs or the run did not complete.
  std::unique_ptr<ProfileBundle> BaseProfile;

  struct PerMode {
    std::unique_ptr<Module> M;
    CompilationReport Report;
    std::string Rendered; ///< renderReportDeterministic of Report.
  };
  PerMode Modes[3];
};

std::string modeTag(unsigned I) {
  return std::string(" [mode ") + compilationModeName(kModes[I]) + "]";
}

FaultInjectorOptions injectorOptionsAt(double SquashRate, uint64_t Seed) {
  FaultInjectorOptions FO;
  FO.Seed = Seed;
  FO.ForcedSquashRate = SquashRate;
  FO.LoadFlipRate = SquashRate * 0.5;
  FO.RegFlipRate = SquashRate * 0.25;
  FO.TimingJitterRate = SquashRate;
  return FO;
}

/// Runs \p Fn over the dependence graph of each loop of \p M that has
/// violation candidates, up to \p MaxLoops graphs. Returns how many
/// graphs were visited. Without \p Profile, probabilities come from the
/// static heuristics. With it, the graphs are the ones Best-mode pass 1
/// builds from a profiling run: block frequencies are the measured block
/// counts, and each loop's dependence profile feeds its edge
/// probabilities. Functions the run never reached are skipped.
template <typename FnT>
unsigned forEachLoopGraph(const Module &M, unsigned MaxLoops,
                          const ProfileBundle *Profile, FnT Fn) {
  unsigned Visited = 0;
  CallEffects Effects = CallEffects::compute(M);
  for (size_t FI = 0; FI != M.numFunctions() && Visited < MaxLoops; ++FI) {
    const Function *F = M.function(static_cast<uint32_t>(FI));
    if (F->isExternal() || F->numBlocks() == 0)
      continue;
    CfgInfo Cfg = CfgInfo::compute(*F);
    LoopNest Nest = LoopNest::compute(*F, Cfg);
    // The driver's frequency sourcing (FuncAnalysis).
    BlockFrequencies BF = blockFrequencies(
        *F, Cfg, Nest, Profile ? Profile->Edges.countsFor(F) : nullptr);
    if (Profile && !BF.Measured)
      continue;
    const FreqInfo &Freq = BF.Freq;
    for (uint32_t LI = 0; LI != Nest.numLoops() && Visited < MaxLoops;
         ++LI) {
      const Loop &L = *Nest.loop(LI);
      DepGraphOptions DG;
      if (Profile)
        DG.DepProfile = Profile->Deps.profileFor(F, L.Id);
      LoopDepGraph G =
          LoopDepGraph::build(M, *F, Cfg, L, Freq, Effects, DG);
      if (G.violationCandidates().empty())
        continue;
      ++Visited;
      Fn(G);
    }
  }
  return Visited;
}

/// forEachLoopGraph over the static graphs of P.BaseM, then over its
/// profiled graphs when P has a profile, whose number is added to the
/// counter \p ProfiledCounter. Returns how many graphs were visited.
template <typename FnT>
unsigned forEachBaseGraph(const Prepared &P, const OracleOptions &Opts,
                          const char *ProfiledCounter, FnT Fn) {
  const unsigned Max = Opts.MaxLoopsForGraphOracles;
  const unsigned Static = forEachLoopGraph(*P.BaseM, Max, nullptr, Fn);
  if (!P.BaseProfile)
    return Static;
  const unsigned Profiled =
      forEachLoopGraph(*P.BaseM, Max, P.BaseProfile.get(), Fn);
  obsAdd(Opts.Obs, ProfiledCounter, Profiled);
  return Static + Profiled;
}

//===----------------------------------------------------------------------===//
// The oracles. Each returns Pass/Fail/Skipped plus detail; they only read
// Prepared.
//===----------------------------------------------------------------------===//

OracleResult oracleVerify(const Prepared &P, const OracleOptions &) {
  OracleResult R{"verify", OracleStatus::Pass, ""};
  for (unsigned MI = 0; MI != 3; ++MI) {
    const Prepared::PerMode &PM = P.Modes[MI];
    const std::string V = verifyModule(*PM.M);
    if (!V.empty()) {
      R.Status = OracleStatus::Fail;
      R.Detail = "transformed module fails verification" + modeTag(MI) +
                 ": " + V;
      return R;
    }
    const CompilationReport &Rep = PM.Report;
    if (!Rep.Degraded && Rep.EffectiveMode != Rep.Mode) {
      R.Status = OracleStatus::Fail;
      R.Detail = "effective mode changed without degradation" + modeTag(MI);
      return R;
    }
    size_t Selected = 0;
    for (const LoopRecord &L : Rep.Loops) {
      if (L.Selected != (L.Reason == RejectReason::Selected)) {
        R.Status = OracleStatus::Fail;
        R.Detail = "Selected flag disagrees with reject reason for loop " +
                   L.FuncName + ":" + std::to_string(L.Header) + modeTag(MI);
        return R;
      }
      if (L.Selected) {
        ++Selected;
        if (!L.Partition.Searched || !std::isfinite(L.Partition.Cost) ||
            L.Partition.Cost < 0.0) {
          R.Status = OracleStatus::Fail;
          R.Detail = "selected loop " + L.FuncName + ":" +
                     std::to_string(L.Header) +
                     " has unsearched or non-finite partition cost" +
                     modeTag(MI);
          return R;
        }
        if (L.SptLoopId < 0 || !Rep.SptLoops.count(L.SptLoopId)) {
          R.Status = OracleStatus::Fail;
          R.Detail = "selected loop " + L.FuncName + ":" +
                     std::to_string(L.Header) +
                     " missing from the SPT loop-id map" + modeTag(MI);
          return R;
        }
      }
      if (L.Work < 0.0 || L.GainEstimate < 0.0 || L.BodyWeight < 0.0) {
        R.Status = OracleStatus::Fail;
        R.Detail = "negative weight/work/gain for loop " + L.FuncName + ":" +
                   std::to_string(L.Header) + modeTag(MI);
        return R;
      }
    }
    if (Rep.SptLoops.size() != Selected) {
      R.Status = OracleStatus::Fail;
      R.Detail = "SPT loop-id map size " +
                 std::to_string(Rep.SptLoops.size()) + " != selected count " +
                 std::to_string(Selected) + modeTag(MI);
      return R;
    }
  }
  return R;
}

OracleResult oracleInterp(const Prepared &P, const OracleOptions &Opts) {
  OracleResult R{"interp", OracleStatus::Pass, ""};
  for (unsigned MI = 0; MI != 3; ++MI) {
    InterpRun Got = interpWithHash(*P.Modes[MI].M, Opts.MaxSteps, P.SimSeed);
    if (!Got.Done) {
      R.Status = OracleStatus::Fail;
      R.Detail = "transformed module did not terminate within the step "
                 "budget" + modeTag(MI);
      return R;
    }
    if (Got.Result.I != P.Baseline.Result.I) {
      R.Status = OracleStatus::Fail;
      R.Detail = "checksum diverged: baseline " +
                 std::to_string(P.Baseline.Result.I) + " vs " +
                 std::to_string(Got.Result.I) + modeTag(MI);
      return R;
    }
    if (Got.Output != P.Baseline.Output) {
      R.Status = OracleStatus::Fail;
      R.Detail = "program output diverged" + modeTag(MI);
      return R;
    }
    if (Got.MemHash != P.Baseline.MemHash) {
      R.Status = OracleStatus::Fail;
      R.Detail = "final memory image diverged" + modeTag(MI);
      return R;
    }
  }
  return R;
}

/// Differential between the interpreter's decoded engine and referenceStep
/// (testing/ReferenceInterp.h): the decoded (threaded-dispatch,
/// superinstruction-fused) engine must produce the exact StepResult record
/// stream, output, return value and final memory image of a reference loop
/// — on the baseline module and on every transformed mode (the SPT
/// transform changes which instruction pairs fuse).
OracleResult oracleInterpDecodeDiff(const Prepared &P,
                                    const OracleOptions &Opts) {
  OracleResult R{"interp-decode-diff", OracleStatus::Pass, ""};
  const Module *Mods[] = {P.BaseM.get(), P.Modes[0].M.get(),
                          P.Modes[1].M.get(), P.Modes[2].M.get()};
  for (unsigned MI = 0; MI != 4; ++MI) {
    const Module &M = *Mods[MI];
    const std::string Tag =
        MI == 0 ? std::string(" [base]") : modeTag(MI - 1);
    const Function *F = M.findFunction("main");
    if (!F)
      continue;

    InterpOptions IO;
    IO.RngSeed = P.SimSeed;
    Interpreter Dec(M, IO);
    Dec.startCall(F, {});
    uint64_t DecHash = 0xcbf29ce484222325ull;
    uint64_t DecRecords = 0;
    auto Sink = makeStepSink([&](const StepResult &S) {
      DecHash = hashStepResult(DecHash, S);
      ++DecRecords;
      return true;
    });
    runBatch(Dec, Sink, Opts.MaxSteps);

    Interpreter Ref(M, IO);
    Ref.startCall(F, {});
    uint64_t RefHash = 0xcbf29ce484222325ull;
    uint64_t RefRecords = 0;
    while (!Ref.done() && RefRecords < Opts.MaxSteps) {
      RefHash = hashStepResult(RefHash, referenceStep(Ref));
      ++RefRecords;
    }

    // Both interpreters walk the same module, so record hashes (which
    // fold in Function/Instr identities) are directly comparable.
    if (DecRecords != RefRecords) {
      R.Status = OracleStatus::Fail;
      R.Detail = "decoded engine retired " + std::to_string(DecRecords) +
                 " records, the reference " + std::to_string(RefRecords) +
                 Tag;
      return R;
    }
    if (DecHash != RefHash) {
      R.Status = OracleStatus::Fail;
      R.Detail = "StepResult streams diverged after " +
                 std::to_string(DecRecords) + " records" + Tag;
      return R;
    }
    if (Dec.done() != Ref.done()) {
      R.Status = OracleStatus::Fail;
      R.Detail = "termination diverged" + Tag;
      return R;
    }
    if (Dec.output() != Ref.output()) {
      R.Status = OracleStatus::Fail;
      R.Detail = "program output diverged between engines" + Tag;
      return R;
    }
    if (Dec.memoryHash() != Ref.memoryHash()) {
      R.Status = OracleStatus::Fail;
      R.Detail = "memory image diverged between engines" + Tag;
      return R;
    }
    if (Dec.done() && Dec.returnValue().I != Ref.returnValue().I) {
      R.Status = OracleStatus::Fail;
      R.Detail = "return value diverged between engines" + Tag;
      return R;
    }
  }
  return R;
}

OracleResult oracleSeqSim(const Prepared &P, const OracleOptions &) {
  OracleResult R{"seqsim", OracleStatus::Pass, ""};
  if (!P.HaveSeqRef) {
    R.Status = OracleStatus::Fail;
    R.Detail = "sequential simulation did not terminate but plain "
               "interpretation did";
    return R;
  }
  if (P.SeqRef.Result.I != P.Baseline.Result.I) {
    R.Status = OracleStatus::Fail;
    R.Detail = "seqsim checksum " + std::to_string(P.SeqRef.Result.I) +
               " != interp checksum " + std::to_string(P.Baseline.Result.I);
    return R;
  }
  if (P.SeqRef.Output != P.Baseline.Output) {
    R.Status = OracleStatus::Fail;
    R.Detail = "seqsim output differs from plain interpretation";
    return R;
  }
  if (P.SeqRef.MemoryHash != P.Baseline.MemHash) {
    R.Status = OracleStatus::Fail;
    R.Detail = "seqsim memory image differs from plain interpretation";
    return R;
  }
  if (P.SeqRef.Instrs != P.Baseline.Steps) {
    R.Status = OracleStatus::Fail;
    R.Detail = "seqsim executed " + std::to_string(P.SeqRef.Instrs) +
               " instructions, interp " + std::to_string(P.Baseline.Steps);
    return R;
  }
  return R;
}

OracleResult oracleSptSim(const Prepared &P, const OracleOptions &Opts) {
  OracleResult R{"sptsim", OracleStatus::Pass, ""};
  if (!P.HaveSeqRef) {
    R.Status = OracleStatus::Skipped;
    R.Detail = "no sequential reference";
    return R;
  }
  for (unsigned MI = 0; MI != 3; ++MI) {
    SptSimResult Sim =
        runSpt(*P.Modes[MI].M, "main", {}, P.Modes[MI].Report.SptLoops,
               MachineConfig(), Opts.MaxSteps, P.SimSeed, nullptr, Opts.Obs);
    if (Sim.Result.I != P.SeqRef.Result.I) {
      R.Status = OracleStatus::Fail;
      R.Detail = "speculative checksum " + std::to_string(Sim.Result.I) +
                 " != sequential " + std::to_string(P.SeqRef.Result.I) +
                 modeTag(MI);
      return R;
    }
    if (Sim.Output != P.SeqRef.Output) {
      R.Status = OracleStatus::Fail;
      R.Detail = "speculative output diverged" + modeTag(MI);
      return R;
    }
    if (Sim.MemoryHash != P.SeqRef.MemoryHash) {
      R.Status = OracleStatus::Fail;
      R.Detail = "speculative memory image diverged" + modeTag(MI);
      return R;
    }
  }
  return R;
}

OracleResult oracleChaos(const Prepared &P, const OracleOptions &Opts) {
  OracleResult R{"chaos", OracleStatus::Pass, ""};
  if (!P.HaveSeqRef) {
    R.Status = OracleStatus::Skipped;
    R.Detail = "no sequential reference";
    return R;
  }
  if (Opts.ChaosRate <= 0.0) {
    R.Status = OracleStatus::Skipped;
    R.Detail = "chaos rate is zero";
    return R;
  }
  Random Derive(Opts.Seed ^ fnv1a(P.PipelineSource) ^ 0xc4a05ull);
  for (unsigned MI = 0; MI != 3; ++MI) {
    FaultInjector FI(injectorOptionsAt(Opts.ChaosRate, Derive.next()));
    SptSimResult Sim =
        runSpt(*P.Modes[MI].M, "main", {}, P.Modes[MI].Report.SptLoops,
               MachineConfig(), Opts.MaxSteps, P.SimSeed, &FI, Opts.Obs);
    if (Sim.Result.I != P.SeqRef.Result.I || Sim.Output != P.SeqRef.Output ||
        Sim.MemoryHash != P.SeqRef.MemoryHash) {
      R.Status = OracleStatus::Fail;
      R.Detail = "architectural state diverged under fault injection (" +
                 std::to_string(FI.stats().total()) + " faults)" +
                 modeTag(MI);
      return R;
    }
  }
  return R;
}

/// True when both results carry the same per-loop speculation counters
/// and Subticks. Perf and CoreStats are telemetry and deliberately
/// excluded.
bool samePerLoop(const SptSimResult &A, const SptSimResult &B) {
  if (A.PerLoop.size() != B.PerLoop.size())
    return false;
  auto IA = A.PerLoop.begin();
  auto IB = B.PerLoop.begin();
  for (; IA != A.PerLoop.end(); ++IA, ++IB) {
    if (IA->first != IB->first)
      return false;
    const SptLoopRunStats &SA = IA->second, &SB = IB->second;
    if (SA.Forks != SB.Forks || SA.Joins != SB.Joins ||
        SA.KilledBeforeJoin != SB.KilledBeforeJoin ||
        SA.Squashed != SB.Squashed ||
        SA.ViolatedThreads != SB.ViolatedThreads ||
        SA.SpecInstrs != SB.SpecInstrs ||
        SA.ReexecInstrs != SB.ReexecInstrs ||
        SA.Iterations != SB.Iterations || SA.Subticks != SB.Subticks)
      return false;
  }
  return true;
}

OracleResult oracleCostDiff(const Prepared &P, const OracleOptions &Opts) {
  OracleResult R{"cost-diff", OracleStatus::Pass, ""};
  Random Rng(Opts.Seed ^ fnv1a(P.BaseSource) ^ 0xc057ull);
  std::string Fail;
  const unsigned Visited = forEachBaseGraph(
      P, Opts, "oracle.cost-diff.profiled_graphs",
      [&](const LoopDepGraph &G) {
        if (!Fail.empty())
          return;
        MisspecCostModel Model(G);
        ReferenceCostModel Ref(G);
        if (Model.topoOrder() != Ref.topoOrder()) {
          Fail = "cost model and reference disagree on the topological "
                 "order";
          return;
        }
        if (!bitEq(Model.emptyPartitionCost(), Ref.emptyPartitionCost())) {
          Fail = "empty-partition cost differs from the reference";
          return;
        }
        const std::vector<uint32_t> &Vcs = G.violationCandidates();
        for (unsigned T = 0; T != Opts.MaxCostTrials; ++T) {
          PartitionSet Part(G.size(), 0);
          for (uint32_t Vc : Vcs)
            if (Rng.next() & 1)
              Part[Vc] = 1;
          MisspecCostModel::Scratch S;
          Model.initScratch(S, Part);
          if (!bitEq(S.Cost, Ref.cost(Part))) {
            Fail = "scratch cost diverges from the reference on a random "
                   "partition (trial " + std::to_string(T) + ")";
            return;
          }
        }
      });
  if (!Fail.empty()) {
    R.Status = OracleStatus::Fail;
    R.Detail = Fail;
  } else if (Visited == 0) {
    R.Status = OracleStatus::Skipped;
    R.Detail = "no loop has violation candidates";
  }
  return R;
}

OracleResult oraclePartitionDiff(const Prepared &P,
                                 const OracleOptions &Opts) {
  OracleResult R{"partition-diff", OracleStatus::Pass, ""};
  std::string Fail;
  const unsigned Visited = forEachBaseGraph(
      P, Opts, "oracle.partition-diff.profiled_graphs",
      [&](const LoopDepGraph &G) {
        if (!Fail.empty())
          return;
        MisspecCostModel Model(G);
        PartitionOptions PO;
        PartitionSearch Search(G, Model, PO);
        PartitionResult Inc = Search.run();
        PartitionResult Ref =
            referencePartitionSearch(Search, ReferenceCostModel(G), PO);
        if (Inc.Searched != Ref.Searched) {
          Fail = "search and reference disagree on whether the loop was "
                 "searched";
          return;
        }
        if (!Inc.Searched)
          return;
        if (!bitEq(Inc.Cost, Ref.Cost))
          Fail = "partition cost differs from the reference";
        else if (Inc.ChosenVcs != Ref.ChosenVcs)
          Fail = "chosen violation candidates differ from the reference";
        else if (Inc.InPreFork != Ref.InPreFork)
          Fail = "pre-fork statement sets differ from the reference";
        else if (!bitEq(Inc.PreForkWeight, Ref.PreForkWeight))
          Fail = "pre-fork weights differ from the reference";
        else if (Inc.NodesVisited != Ref.NodesVisited ||
                 Inc.CostEvals != Ref.CostEvals)
          Fail = "search statistics differ from the reference (different "
                 "trees walked)";
      });
  if (!Fail.empty()) {
    R.Status = OracleStatus::Fail;
    R.Detail = Fail;
  } else if (Visited == 0) {
    R.Status = OracleStatus::Skipped;
    R.Detail = "no loop has violation candidates";
  }
  return R;
}

OracleResult oracleCacheDiff(const Prepared &P, const OracleOptions &Opts) {
  OracleResult R{"cache-diff", OracleStatus::Pass, ""};
  // Replays the batch server's cache pipeline: canonicalize through the
  // AST printer, compile the canonical text cold, round-trip the report
  // through a real CompileCache, and require byte-identity at each hop.
  // This is the end-to-end guard on the cache's keying assumption — same
  // canonical reprint and options fingerprint imply the same report.
  Parser Pr(P.PipelineSource);
  ProgramAst Ast = Pr.parseProgram();
  if (!Pr.errors().empty()) {
    R.Status = OracleStatus::Fail;
    R.Detail = "pipeline source stopped parsing: " + Pr.errors().front();
    return R;
  }
  const std::string Canonical = programToSource(Ast);
  const uint64_t ContentHash = fnv1a(Canonical);

  CompileCache Cache(8);
  uint64_t FirstKey = 0;
  for (unsigned MI = 0; MI != 3; ++MI) {
    SptCompilerOptions SO;
    SO.Mode = kModes[MI];
    SO.RngSeed = P.CompilerSeed;
    SO.ProfileMaxSteps = Opts.MaxSteps;
    const uint64_t Key =
        CompileCache::key(ContentHash, compilerOptionsFingerprint(SO));
    if (MI == 0)
      FirstKey = Key;

    CompileResult CR = compileSource(Canonical);
    if (!CR.ok()) {
      R.Status = OracleStatus::Fail;
      R.Detail = "canonical reprint stopped compiling" + modeTag(MI);
      return R;
    }
    CompilationReport Cold = compileSpt(*CR.M, SO);
    const std::string ColdRendered = renderReportDeterministic(Cold);
    if (ColdRendered != P.Modes[MI].Rendered) {
      R.Status = OracleStatus::Fail;
      R.Detail = "canonical reprint compiles to a different report than "
                 "the original source (cache keying assumption violated)" +
                 modeTag(MI);
      return R;
    }

    Cache.insert(Key, ColdRendered);
    std::string Warm;
    if (!Cache.lookup(Key, Warm)) {
      R.Status = OracleStatus::Fail;
      R.Detail = "freshly inserted cache entry missed" + modeTag(MI);
      return R;
    }
    if (Warm != ColdRendered) {
      R.Status = OracleStatus::Fail;
      R.Detail = "warm-cache report is not byte-identical to the cold "
                 "compile" + modeTag(MI);
      return R;
    }
  }

  // Corruption must be detected, counted, and never served. The LRU
  // victim is mode 0's entry (inserted first, never touched since).
  const CompileCacheStats Before = Cache.stats();
  if (!Cache.corruptOneEntry()) {
    R.Status = OracleStatus::Fail;
    R.Detail = "cache reported no entry to corrupt after three inserts";
    return R;
  }
  std::string Served;
  if (Cache.lookup(FirstKey, Served)) {
    R.Status = OracleStatus::Fail;
    R.Detail = "corrupted cache entry was served instead of detected";
    return R;
  }
  const CompileCacheStats After = Cache.stats();
  if (After.Corrupt != Before.Corrupt + 1) {
    R.Status = OracleStatus::Fail;
    R.Detail = "checksum mismatch was not counted as corruption";
    return R;
  }
  return R;
}

/// "" when profileRun and the reference profiler return field-equal
/// bundles for main() of \p M under three configurations: every int
/// definition value-watched; callee attribution off; and a step budget
/// that ends the run halfway. Otherwise, which configuration diverged.
std::string profilerReferenceDiff(const Module &M, uint64_t RngSeed,
                                  uint64_t MaxSteps) {
  ProfilerOptions Watched;
  Watched.RngSeed = RngSeed;
  Watched.MaxSteps = MaxSteps;
  Watched.ValueWatch = allIntDefinitions(M);
  ProfilerOptions NoAttribution = Watched;
  NoAttribution.AttributeCalleeAccesses = false;

  uint64_t Steps = 0;
  auto diffUnder = [&](const char *Name, const ProfilerOptions &O) {
    const ProfileBundle Got = profileRun(M, "main", {}, O);
    Steps = Got.Instrs;
    const std::string Diff =
        diffProfileBundles(M, Got, referenceProfileRun(M, "main", {}, O));
    if (Diff.empty())
      return Diff;
    return std::string("profileRun diverged from the reference profiler (") +
           Name + "): " + Diff;
  };
  std::string Diff = diffUnder("values watched", Watched);
  if (Diff.empty())
    Diff = diffUnder("callee attribution off", NoAttribution);
  ProfilerOptions Truncated = Watched;
  Truncated.MaxSteps = std::max<uint64_t>(1, Steps / 2);
  if (Diff.empty())
    Diff = diffUnder("budget ends the run halfway", Truncated);
  return Diff;
}

/// End-to-end guard on dependence profiling (profile/Profiler.h,
/// profile/DepProfiler.h). profileRun must return the reference
/// profiler's bundle field for field. Profiling the canonical reprint
/// must yield a deterministic artifact that survives
/// serialize→parse→serialize byte for byte; a corrupted payload byte must
/// be rejected by the checksum; and compiling against the artifact must
/// stay deterministic and must never change program semantics — measured
/// probabilities steer the partition search, the speculation hardware
/// guarantees correctness.
OracleResult oracleProfileDiff(const Prepared &P, const OracleOptions &Opts) {
  OracleResult R{"profile-diff", OracleStatus::Pass, ""};
  Parser Pr(P.PipelineSource);
  ProgramAst Ast = Pr.parseProgram();
  if (!Pr.errors().empty()) {
    R.Status = OracleStatus::Fail;
    R.Detail = "pipeline source stopped parsing: " + Pr.errors().front();
    return R;
  }
  const std::string Canonical = programToSource(Ast);
  CompileResult CR = compileSource(Canonical);
  if (!CR.ok()) {
    R.Status = OracleStatus::Fail;
    R.Detail = "canonical reprint stopped compiling";
    return R;
  }
  if (std::string Diff =
          profilerReferenceDiff(*CR.M, P.SimSeed, Opts.MaxSteps);
      !Diff.empty()) {
    R.Status = OracleStatus::Fail;
    R.Detail = Diff;
    return R;
  }

  DepProfilerOptions DPO;
  DPO.MaxSteps = Opts.MaxSteps;
  DPO.RngSeed = P.SimSeed;
  DPO.Workload = "fuzz";
  StatusOr<DepProfileArtifact> A1 = profileDependenceArtifact(*CR.M, DPO);
  if (!A1) {
    R.Status = OracleStatus::Skipped;
    R.Detail = "profiling run did not complete: " + A1.message();
    return R;
  }
  StatusOr<DepProfileArtifact> A2 = profileDependenceArtifact(*CR.M, DPO);
  const std::string T1 = serializeDepProfile(A1.value());
  if (!A2 || serializeDepProfile(A2.value()) != T1) {
    R.Status = OracleStatus::Fail;
    R.Detail = "re-profiling the same module produced a different artifact";
    return R;
  }
  StatusOr<DepProfileArtifact> RT = parseDepProfile(T1);
  if (!RT || serializeDepProfile(RT.value()) != T1) {
    R.Status = OracleStatus::Fail;
    R.Detail = "artifact does not round-trip through serialize/parse";
    return R;
  }
  if (depProfileDrift(A1.value(), RT.value()) != 0.0) {
    R.Status = OracleStatus::Fail;
    R.Detail = "artifact drifts against its own round-trip";
    return R;
  }

  // One flipped payload digit must fail the checksum. "steps " is always
  // present and inside the checksummed payload.
  std::string Corrupt = T1;
  const size_t StepsAt = Corrupt.find("\nsteps ");
  if (StepsAt == std::string::npos) {
    R.Status = OracleStatus::Fail;
    R.Detail = "artifact is missing its steps record";
    return R;
  }
  char &Digit = Corrupt[StepsAt + 7];
  Digit = Digit == '9' ? '0' : Digit + 1;
  if (parseDepProfile(Corrupt)) {
    R.Status = OracleStatus::Fail;
    R.Detail = "corrupted artifact passed checksum verification";
    return R;
  }

  // Compile twice against the artifact: byte-identical reports, and the
  // transformed module still computes what the untransformed one does.
  auto Shared = std::make_shared<DepProfileArtifact>(RT.value());
  SptCompilerOptions SO;
  SO.Mode = CompilationMode::Best;
  SO.RngSeed = P.CompilerSeed;
  SO.ProfileMaxSteps = Opts.MaxSteps;
  SO = SO.withProfileArtifact(Shared, "fuzz-artifact");
  CompileResult CRb = compileSource(Canonical);
  CompilationReport Rep1 = compileSpt(*CR.M, SO);
  CompilationReport Rep2 = compileSpt(*CRb.M, SO);
  if (renderReportDeterministic(Rep1) != renderReportDeterministic(Rep2)) {
    R.Status = OracleStatus::Fail;
    R.Detail = "measured-artifact compilation is not deterministic";
    return R;
  }
  CompileResult Ref = compileSource(Canonical);
  InterpRun Want = interpWithHash(*Ref.M, Opts.MaxSteps, P.SimSeed);
  InterpRun Got = interpWithHash(*CR.M, Opts.MaxSteps, P.SimSeed);
  if (Want.Done) {
    if (!Got.Done || Got.Result.I != Want.Result.I ||
        Got.Output != Want.Output || Got.MemHash != Want.MemHash) {
      R.Status = OracleStatus::Fail;
      R.Detail = "measured-artifact compilation changed program semantics";
      return R;
    }
  }
  return R;
}

/// Differential guard on the N-core SPT engine behind runSpt. At Cores=2
/// it must be byte-identical to the two-core reference engine
/// (testing/ReferenceSptSim.h) in every report field — timing,
/// instruction counts, architectural state and all per-loop speculation
/// counters. At Cores=4 and Cores=8 the chain has no reference engine, but
/// architectural state is a function of the main interpreter alone, so
/// checksum, output and the memory image must still equal the sequential
/// reference.
OracleResult oracleKwayDiff(const Prepared &P, const OracleOptions &Opts) {
  OracleResult R{"kway-diff", OracleStatus::Pass, ""};
  if (!P.HaveSeqRef) {
    R.Status = OracleStatus::Skipped;
    R.Detail = "no sequential reference";
    return R;
  }
  for (unsigned MI = 0; MI != 3; ++MI) {
    const Module &M = *P.Modes[MI].M;
    const auto &Loops = P.Modes[MI].Report.SptLoops;
    auto run = [&](const MachineConfig &MC) {
      return runSpt(M, "main", {}, Loops, MC, Opts.MaxSteps, P.SimSeed,
                    nullptr, Opts.Obs);
    };
    const SptSimResult Gen = run(MachineConfig());
    const SptSimResult Ref = runSptTwoCore(M, "main", {}, Loops,
                                           MachineConfig(), Opts.MaxSteps,
                                           P.SimSeed, nullptr, Opts.Obs);
    if (Gen.Subticks != Ref.Subticks || Gen.Instrs != Ref.Instrs ||
        Gen.Result.I != Ref.Result.I || Gen.Output != Ref.Output ||
        Gen.MemoryHash != Ref.MemoryHash ||
        !samePerLoop(Gen, Ref)) {
      R.Status = OracleStatus::Fail;
      R.Detail = "generalized engine diverged from the two-core reference "
                 "at Cores=2" +
                 modeTag(MI);
      return R;
    }
    for (uint32_t Cores : {4u, 8u}) {
      MachineConfig MC;
      MC.Cores = Cores;
      const SptSimResult Wide = run(MC);
      if (Wide.Result.I != P.SeqRef.Result.I ||
          Wide.Output != P.SeqRef.Output ||
          Wide.MemoryHash != P.SeqRef.MemoryHash) {
        R.Status = OracleStatus::Fail;
        R.Detail = "architectural state diverged at Cores=" +
                   std::to_string(Cores) + modeTag(MI);
        return R;
      }
    }
  }
  return R;
}

using OracleFn = OracleResult (*)(const Prepared &, const OracleOptions &);

struct OracleEntry {
  OracleInfo Info;
  OracleFn Fn;
};

const OracleEntry kOracles[] = {
    {{"verify", "transformed modules verify; report invariants hold"},
     oracleVerify},
    {{"interp", "interpretation of the transformed module preserves the "
                "baseline checksum, output and memory image"},
     oracleInterp},
    {{"interp-decode-diff",
      "the decoded (threaded, fused) interpreter engine produces the "
      "reference stepper's exact record stream, output and memory image"},
     oracleInterpDecodeDiff},
    {{"seqsim", "sequential simulation matches plain interpretation"},
     oracleSeqSim},
    {{"sptsim", "speculative simulation matches the sequential reference"},
     oracleSptSim},
    {{"chaos", "architectural state survives fault injection"}, oracleChaos},
    {{"cost-diff", "the cost model is bit-identical to the reference model "
                   "on static and profiled loop graphs"},
     oracleCostDiff},
    {{"partition-diff", "the partition search is bit-identical to the "
                        "reference search on static and profiled loop "
                        "graphs"},
     oraclePartitionDiff},
    {{"cache-diff", "warm-cache compile reports byte-equal to cold "
                    "compiles; corrupt entries detected, never served"},
     oracleCacheDiff},
    {{"kway-diff",
      "generalized N-core engine byte-identical to the two-core reference "
      "at Cores=2; architectural state preserved at Cores=4/8"},
     oracleKwayDiff},
    {{"profile-diff",
      "profileRun matches the reference profiler field for field; "
      "dependence-profile artifacts are deterministic, round-trip with "
      "checksum verification, and never change program semantics"},
     oracleProfileDiff},
};

bool wanted(const OracleOptions &Opts, const char *Name) {
  if (Opts.Only.empty())
    return true;
  for (const std::string &N : Opts.Only)
    if (N == Name)
      return true;
  return false;
}

void extractFeatures(const Prepared &P, OracleRunReport &Out) {
  std::vector<uint32_t> &F = Out.Features;
  F.push_back(feat(FeatSteps, bucketOf(P.Baseline.Steps)));
  for (unsigned MI = 0; MI != 3; ++MI) {
    const CompilationReport &Rep = P.Modes[MI].Report;
    F.push_back(feat(FeatSelected,
                     MI * 8 + static_cast<uint32_t>(std::min<size_t>(
                                  Rep.numSelected(), 7))));
    if (Rep.Degraded)
      F.push_back(feat(FeatDegrade, 0));
    for (const Diagnostic &D : Rep.Diags.all())
      F.push_back(feat(FeatDiag, static_cast<uint32_t>(D.Stage) * 4 +
                                     static_cast<uint32_t>(D.Severity)));
    for (const LoopRecord &L : Rep.Loops) {
      F.push_back(feat(FeatReject, static_cast<uint32_t>(L.Reason)));
      if (L.Counted)
        F.push_back(feat(FeatShape, 0));
      if (L.Depth > 1)
        F.push_back(feat(FeatShape, 1));
      if (L.UnrollFactor > 1)
        F.push_back(feat(FeatShape, 2));
      if (L.SvpApplied)
        F.push_back(feat(FeatShape, 3));
      if (L.NumCarriedRegs > 0)
        F.push_back(feat(FeatShape, 4));
      if (L.NumMovedStmts > 0)
        F.push_back(feat(FeatShape, 5));
      if (L.Partition.BudgetExhausted)
        F.push_back(feat(FeatDegrade, 1));
      F.push_back(
          feat(FeatVcs, bucketOf(L.Partition.NumViolationCandidates)));
    }
  }
  std::sort(F.begin(), F.end());
  F.erase(std::unique(F.begin(), F.end()), F.end());
}

} // namespace

const std::vector<OracleInfo> &spt::oracleCatalogue() {
  static const std::vector<OracleInfo> Catalogue = [] {
    std::vector<OracleInfo> C;
    for (const OracleEntry &E : kOracles)
      C.push_back(E.Info);
    return C;
  }();
  return Catalogue;
}

OracleRunReport spt::runOracleSuite(const std::string &Source,
                                    const OracleOptions &Opts) {
  OracleRunReport Out;

  Prepared P;
  P.BaseSource = Source;
  P.PipelineSource = Source;
  if (Opts.InjectKnownBad) {
    KnownBadOutcome KB = applyKnownBadMutation(Source);
    if (KB.Applied)
      P.PipelineSource = KB.Source;
  }
  Random Derive(Opts.Seed ^ fnv1a(Source));
  P.SimSeed = Derive.next();
  P.CompilerSeed = Derive.next();

  CompileResult Base = compileSource(Source);
  if (!Base.ok()) {
    Out.FrontendError = Base.Errors.empty() ? "unknown" : Base.Errors[0];
    return Out;
  }
  Out.Compiled = true;
  P.BaseM = std::move(Base.M);

  P.Baseline = interpWithHash(*P.BaseM, Opts.MaxSteps, P.SimSeed);
  if (!P.Baseline.Done)
    return Out;
  Out.Terminated = true;

  for (unsigned MI = 0; MI != 3; ++MI) {
    CompileResult CR = compileSource(P.PipelineSource);
    if (!CR.ok()) {
      // The known-bad rewrite of a compilable program always compiles; a
      // failure here means the baseline itself was borderline. Treat as
      // non-compiling.
      Out.Compiled = false;
      Out.FrontendError = CR.Errors.empty() ? "unknown" : CR.Errors[0];
      return Out;
    }
    SptCompilerOptions SO;
    SO.Mode = kModes[MI];
    SO.RngSeed = P.CompilerSeed;
    SO.ProfileMaxSteps = Opts.MaxSteps;
    P.Modes[MI].Report = compileSpt(*CR.M, SO);
    P.Modes[MI].Rendered = renderReportDeterministic(P.Modes[MI].Report);
    P.Modes[MI].M = std::move(CR.M);
  }

  // The graph oracles' profiled pass walks the graphs Best-mode pass 1
  // builds from one profiling run of the base module.
  if (wanted(Opts, "cost-diff") || wanted(Opts, "partition-diff")) {
    ProfilerOptions PO;
    PO.MaxSteps = Opts.MaxSteps;
    PO.RngSeed = P.CompilerSeed;
    auto Profile = std::make_unique<ProfileBundle>(
        profileRun(*P.BaseM, "main", {}, PO));
    if (Profile->Completed)
      P.BaseProfile = std::move(Profile);
  }

  // The sequential reference is only needed by the simulator-facing
  // oracles; a restricted run (e.g. the reducer re-checking "interp")
  // skips it.
  if (wanted(Opts, "seqsim") || wanted(Opts, "sptsim") ||
      wanted(Opts, "chaos") || wanted(Opts, "kway-diff")) {
    SeqSimResult Seq = runSequential(*P.BaseM, "main", {}, MachineConfig(),
                                     Opts.MaxSteps, P.SimSeed);
    // The sequential simulator has no explicit termination flag; a run
    // that hit the budget executed exactly MaxSteps instructions while
    // the baseline finished below it.
    P.HaveSeqRef =
        Seq.Instrs == P.Baseline.Steps || Seq.Instrs < Opts.MaxSteps;
    P.SeqRef = std::move(Seq);
  }

  extractFeatures(P, Out);

  for (const OracleEntry &E : kOracles) {
    if (!wanted(Opts, E.Info.Name))
      continue;
    {
      ObsSpan S(Opts.Obs,
                Opts.Obs ? std::string("oracle.") + E.Info.Name
                         : std::string());
      Out.Results.push_back(E.Fn(P, Opts));
    }
    if (Opts.Obs) {
      const OracleResult &R = Out.Results.back();
      obsAdd(Opts.Obs, "oracle.runs", 1);
      const char *Verdict = R.Status == OracleStatus::Pass   ? "pass"
                            : R.Status == OracleStatus::Fail ? "fail"
                                                             : "skip";
      Opts.Obs->Metrics
          .counter(std::string("oracle.") + E.Info.Name + "." + Verdict)
          ->inc();
    }
  }
  return Out;
}

std::string spt::featureName(uint32_t Feature) {
  const uint32_t Cat = Feature >> 16;
  const uint32_t Payload = Feature & 0xffffu;
  switch (Cat) {
  case FeatReject:
    return std::string("reject:") +
           rejectReasonName(static_cast<RejectReason>(Payload));
  case FeatDiag:
    return std::string("diag:") +
           diagStageName(static_cast<DiagStage>(Payload / 4)) + ":" +
           diagSeverityName(static_cast<DiagSeverity>(Payload % 4));
  case FeatSelected:
    return std::string("selected:") +
           compilationModeName(static_cast<CompilationMode>(Payload / 8)) +
           ":" + std::to_string(Payload % 8);
  case FeatShape: {
    static const char *Flags[] = {"counted",  "nested",      "unrolled",
                                  "svp",      "carried-regs", "moved-stmts"};
    return std::string("shape:") +
           (Payload < 6 ? Flags[Payload] : "unknown");
  }
  case FeatVcs:
    return "vcs:2^" + std::to_string(Payload);
  case FeatDegrade:
    return Payload == 0 ? "degraded" : "budget-exhausted";
  case FeatSteps:
    return "steps:2^" + std::to_string(Payload);
  default:
    return "feature:" + std::to_string(Feature);
  }
}

std::string spt::chaosCompare(const std::string &Source, CompilationMode Mode,
                              double SquashRate, uint64_t CompilerSeed,
                              uint64_t SimSeed, uint64_t InjectorSeed,
                              uint64_t MaxSteps) {
  CompileResult Base = compileSource(Source);
  if (!Base.ok())
    return "baseline does not compile: " +
           (Base.Errors.empty() ? "unknown" : Base.Errors[0]);
  const SeqSimResult Ref = runSequential(*Base.M, "main", {}, MachineConfig(),
                                         MaxSteps, SimSeed);

  CompileResult CR = compileSource(Source);
  if (!CR.ok())
    return "pipeline copy does not compile";
  SptCompilerOptions Opts;
  Opts.Mode = Mode;
  Opts.RngSeed = CompilerSeed;
  Opts.ProfileMaxSteps = MaxSteps;
  CompilationReport Report = compileSpt(*CR.M, Opts);
  const std::string V = verifyModule(*CR.M);
  if (!V.empty())
    return "transformed module fails verification: " + V;

  FaultInjector FI(injectorOptionsAt(SquashRate, InjectorSeed));
  SptSimResult Sim = runSpt(*CR.M, "main", {}, Report.SptLoops,
                            MachineConfig(), MaxSteps, SimSeed, &FI);
  const std::string Where = std::string(" (mode ") +
                            compilationModeName(Mode) + ", " +
                            std::to_string(FI.stats().total()) + " faults)";
  if (Sim.Result.I != Ref.Result.I)
    return "checksum " + std::to_string(Sim.Result.I) + " != sequential " +
           std::to_string(Ref.Result.I) + Where;
  if (Sim.Output != Ref.Output)
    return "program output diverged" + Where;
  if (Sim.MemoryHash != Ref.MemoryHash)
    return "memory image diverged" + Where;
  return "";
}

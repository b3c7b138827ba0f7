//===- testing/ReferenceProfiler.cpp - Map-based reference profiler -------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The map-based profiler, the differential oracle of profile/Profiler.cpp:
// every store records one tag per live loop activation, and every read
// scans them.
//
//===----------------------------------------------------------------------===//

#include "testing/ReferenceProfiler.h"

#include "analysis/Cfg.h"
#include "analysis/LoopInfo.h"
#include "support/WrapMath.h"
#include "testing/StepSink.h"

#include <map>
#include <memory>

using namespace spt;

namespace {

/// Synthetic addresses for the hidden state of stateful builtins; both lie
/// below the first array base (0x1000), so they never collide with data.
constexpr uint64_t RngAddr = 8;
constexpr uint64_t IoAddr = 16;

/// Cached per-function structural analyses.
struct FuncAnalyses {
  CfgInfo Cfg;
  LoopNest Nest;
  std::map<BlockId, const Loop *> HeaderToLoop;

  explicit FuncAnalyses(const Function &F)
      : Cfg(CfgInfo::compute(F)), Nest(LoopNest::compute(F, Cfg)) {
    for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI)
      HeaderToLoop[Nest.loop(LI)->Header] = Nest.loop(LI);
  }
};

/// One live loop activation within one frame.
struct LoopActivation {
  const Loop *L = nullptr;
  uint64_t ActivationId = 0;
  uint64_t Iter = 0;
};

/// Shadow of one interpreter frame.
struct ShadowFrame {
  const Function *F = nullptr;
  const FuncAnalyses *FA = nullptr;
  std::vector<LoopActivation> Active; ///< Innermost last.
  /// The Call statement in the *parent* frame that created this frame
  /// (NoStmt for the outermost frame).
  StmtId CallSiteInParent = NoStmt;
};

/// A recorded last-writer tag, one per loop active at write time.
struct WriteTag {
  const Function *LoopFunc = nullptr;
  const Loop *L = nullptr;
  uint64_t ActivationId = 0;
  uint64_t Iter = 0;
  StmtId Stmt = NoStmt;
};

/// Running state for one value-watched statement.
struct ValueWatchState {
  bool HasLast = false;
  int64_t Last = 0;
  uint64_t Samples = 0;
  std::map<int64_t, uint64_t> Diffs; ///< Capped in size.
};

/// The profiler is a StepSink: runBatch streams every StepResult into
/// onStep, which does exactly what the old
/// step()-loop body did (edge/dep/value collection, shadow-stack upkeep,
/// cancellation polling).
class ProfilerRun final : public StepSink {
public:
  ProfilerRun(const Module &M, const ProfilerOptions &Opts)
      : M(M), Opts(Opts) {}

  ProfileBundle run(const std::string &FnName, const std::vector<Value> &Args);

  bool onStep(const StepResult &R) override;

private:
  const FuncAnalyses &analysesFor(const Function *F) {
    auto It = Cache.find(F);
    if (It == Cache.end())
      It = Cache.emplace(F, std::make_unique<FuncAnalyses>(*F)).first;
    return *It->second;
  }

  FunctionEdgeCounts &edgeCountsFor(const Function *F) {
    auto It = Bundle.Edges.PerFunc.find(F);
    if (It == Bundle.Edges.PerFunc.end()) {
      It = Bundle.Edges.PerFunc.emplace(F, FunctionEdgeCounts()).first;
      It->second.resizeFor(*F);
    }
    return It->second;
  }

  LoopDepProfileData &depDataFor(const Function *F, const Loop *L) {
    return Bundle.Deps.PerLoop[{F, L->Id}];
  }

  void enterBlock(ShadowFrame &Sh, BlockId To);
  /// Attributed statement id for the loop stack of frame \p Depth, given
  /// the interpreter's current stack.
  StmtId attributedStmt(const Interpreter &In, size_t Depth, StmtId TopStmt);
  void onMemWrite(const Interpreter &In, uint64_t Addr, StmtId TopStmt);
  void onMemRead(const Interpreter &In, uint64_t Addr, StmtId TopStmt);
  void bumpStmtExec(StmtId TopStmt);
  void onValueSample(const Function *F, StmtId Stmt, int64_t V);

  const Module &M;
  const ProfilerOptions &Opts;
  ProfileBundle Bundle;
  std::map<const Function *, std::unique_ptr<FuncAnalyses>> Cache;
  std::vector<ShadowFrame> Shadow;
  std::map<uint64_t, std::vector<WriteTag>> LastWriter;
  std::map<std::pair<const Function *, StmtId>, ValueWatchState> ValueState;
  uint64_t NextActivationId = 1;
  Interpreter *In = nullptr; ///< The machine runBatch is driving.
  uint64_t Steps = 0;
};

void ProfilerRun::enterBlock(ShadowFrame &Sh, BlockId To) {
  // Leave loops that do not contain the new block.
  while (!Sh.Active.empty() && !Sh.Active.back().L->contains(To))
    Sh.Active.pop_back();

  auto HeaderIt = Sh.FA->HeaderToLoop.find(To);
  if (HeaderIt == Sh.FA->HeaderToLoop.end())
    return;
  const Loop *L = HeaderIt->second;
  if (!Sh.Active.empty() && Sh.Active.back().L == L) {
    // Back edge: a new iteration of the innermost active loop.
    ++Sh.Active.back().Iter;
    if (Opts.CollectDeps)
      ++depDataFor(Sh.F, L).Iterations;
    return;
  }
  // Fresh activation.
  Sh.Active.push_back(LoopActivation{L, NextActivationId++, 0});
  if (Opts.CollectDeps) {
    LoopDepProfileData &D = depDataFor(Sh.F, L);
    ++D.Activations;
    ++D.Iterations;
  }
}

StmtId ProfilerRun::attributedStmt(const Interpreter &In, size_t Depth,
                                   StmtId TopStmt) {
  if (Depth + 1 == Shadow.size())
    return TopStmt;
  if (!Opts.AttributeCalleeAccesses)
    return NoStmt;
  (void)In;
  return Shadow[Depth + 1].CallSiteInParent;
}

void ProfilerRun::bumpStmtExec(StmtId TopStmt) {
  // Executions of a memory-touching statement, counted in every loop of
  // the top frame that contains it.
  ShadowFrame &Sh = Shadow.back();
  for (const LoopActivation &A : Sh.Active)
    ++depDataFor(Sh.F, A.L).StmtExec[TopStmt];
}

void ProfilerRun::onMemWrite(const Interpreter &In, uint64_t Addr,
                             StmtId TopStmt) {
  std::vector<WriteTag> Tags;
  for (size_t D = 0; D != Shadow.size(); ++D) {
    const StmtId Attr = attributedStmt(In, D, TopStmt);
    if (Attr == NoStmt)
      continue;
    for (const LoopActivation &A : Shadow[D].Active)
      Tags.push_back(
          WriteTag{Shadow[D].F, A.L, A.ActivationId, A.Iter, Attr});
  }
  LastWriter[Addr] = std::move(Tags);
}

void ProfilerRun::onMemRead(const Interpreter &In, uint64_t Addr,
                            StmtId TopStmt) {
  auto It = LastWriter.find(Addr);
  if (It == LastWriter.end())
    return;
  for (size_t D = 0; D != Shadow.size(); ++D) {
    const StmtId Attr = attributedStmt(In, D, TopStmt);
    if (Attr == NoStmt)
      continue;
    for (const LoopActivation &A : Shadow[D].Active) {
      // Find the matching activation tag from the write.
      for (const WriteTag &T : It->second) {
        if (T.L != A.L || T.ActivationId != A.ActivationId)
          continue;
        MemDepCounts &C =
            depDataFor(Shadow[D].F, A.L).Pairs[{T.Stmt, Attr}];
        const uint64_t Dist = A.Iter - T.Iter;
        if (Dist == 0)
          ++C.Intra;
        else if (Dist == 1)
          ++C.Cross;
        else
          ++C.Far;
        break;
      }
    }
  }
}

void ProfilerRun::onValueSample(const Function *F, StmtId Stmt, int64_t V) {
  ValueWatchState &S = ValueState[{F, Stmt}];
  if (S.HasLast) {
    ++S.Samples;
    const int64_t Diff = wrapSub(V, S.Last);
    if (S.Diffs.size() < 64 || S.Diffs.count(Diff))
      ++S.Diffs[Diff];
  }
  S.HasLast = true;
  S.Last = V;
}

ProfileBundle ProfilerRun::run(const std::string &FnName,
                               const std::vector<Value> &Args) {
  const Function *F = M.findFunction(FnName);
  if (!F) {
    Bundle.Completed = false;
    Bundle.Error = "profileRun: no such function: " + FnName;
    return Bundle;
  }

  InterpOptions IOpts;
  IOpts.RngSeed = Opts.RngSeed;
  Interpreter Machine(M, IOpts);
  In = &Machine;
  Machine.startCall(F, Args);
  Shadow.push_back(ShadowFrame{F, &analysesFor(F), {}, NoStmt});
  enterBlock(Shadow.back(), F->entry());

  // A token cancelled before the run starts stops it at zero steps, the
  // same answer the old pre-step poll gave.
  if (Opts.Cancel && Opts.Cancel->cancelled()) {
    Bundle.Completed = false;
    Bundle.Error = "profileRun: cancelled after 0 steps";
  } else {
    runBatch(Machine, *this, Opts.MaxSteps);
  }
  if (!Machine.done() && Bundle.Completed) {
    // Budget exhaustion is survivable: the caller gets whatever was
    // measured so far, flagged as incomplete, and decides whether partial
    // profiles are usable (the driver degrades to static analysis).
    // (Cancellation above already set Completed/Error; keep its message.)
    Bundle.Completed = false;
    Bundle.Error = "profileRun: step budget exhausted after " +
                   std::to_string(Steps) + " steps";
  }

  // Finalize value statistics.
  for (auto &[Key, S] : ValueState) {
    StrideStats Stats;
    Stats.Samples = S.Samples;
    auto ZeroIt = S.Diffs.find(0);
    Stats.SameValue = ZeroIt == S.Diffs.end() ? 0 : ZeroIt->second;
    for (const auto &[Diff, Count] : S.Diffs)
      if (Count > Stats.BestStrideHits) {
        Stats.BestStrideHits = Count;
        Stats.BestStride = Diff;
      }
    Bundle.Values.PerStmt[Key] = Stats;
  }

  Bundle.Result = Machine.returnValue();
  Bundle.Output = Machine.output();
  Bundle.Instrs = Steps;
  In = nullptr;
  return Bundle;
}

bool ProfilerRun::onStep(const StepResult &R) {
  ++Steps;
  const StmtId TopStmt = R.I->Id;

  // Edge profile.
  if (Opts.CollectEdges) {
    FunctionEdgeCounts &EC = edgeCountsFor(R.F);
    if (R.Index == 0)
      ++EC.Block[R.Block];
    if (R.IsBranch) {
      const uint32_t SuccIdx =
          R.I->Op == Opcode::Br ? (R.BranchTaken ? 0u : 1u) : 0u;
      ++EC.Edge[R.Block][SuccIdx];
    }
  }

  // Dependence profile.
  if (Opts.CollectDeps) {
    if (R.IsLoad) {
      bumpStmtExec(TopStmt);
      onMemRead(*In, R.Addr, TopStmt);
    } else if (R.IsStore) {
      bumpStmtExec(TopStmt);
      onMemWrite(*In, R.Addr, TopStmt);
    } else if (R.I->Op == Opcode::Call) {
      bumpStmtExec(TopStmt);
      const Function *Callee = M.function(R.I->calleeIndex());
      if (Callee->isExternal()) {
        if (Callee->name() == "rnd") {
          onMemRead(*In, RngAddr, TopStmt);
          onMemWrite(*In, RngAddr, TopStmt);
        } else if (Callee->name() == "print_int" ||
                   Callee->name() == "print_fp") {
          onMemRead(*In, IoAddr, TopStmt);
          onMemWrite(*In, IoAddr, TopStmt);
        }
      }
    }
  }

  // Value profile (integer results only). Calls into defined functions
  // produce their value at the matching return, not at call entry.
  if (Opts.CollectValues && !Opts.ValueWatch.empty()) {
    if (!R.IsCallEnter && R.I->Dst != NoReg && R.I->Ty == Type::Int &&
        Opts.ValueWatch.count({R.F, TopStmt}))
      onValueSample(R.F, TopStmt, R.Result.I);
    if (R.IsReturn && Shadow.size() >= 2 && !R.I->Srcs.empty()) {
      const StmtId CallSite = Shadow.back().CallSiteInParent;
      const Function *Caller = Shadow[Shadow.size() - 2].F;
      if (CallSite != NoStmt && Opts.ValueWatch.count({Caller, CallSite}))
        onValueSample(Caller, CallSite, R.Result.I);
    }
  }

  // Stack and control-flow shadowing.
  if (R.IsCallEnter) {
    const Function *Callee = In->topFrame().F;
    Shadow.push_back(ShadowFrame{Callee, &analysesFor(Callee), {}, TopStmt});
    enterBlock(Shadow.back(), Callee->entry());
  } else if (R.IsReturn) {
    Shadow.pop_back();
  } else if (R.IsBranch) {
    enterBlock(Shadow.back(), R.NextBlock);
  }

  // Token poll stride: cheap relative to an interpreted step, frequent
  // enough that a request deadline stops a runaway profile within
  // microseconds rather than after the full step budget. Polled after the
  // record so "cancelled after N steps" matches the old pre-step check.
  constexpr uint64_t CancelCheckStride = 16384;
  if (Opts.Cancel && Steps % CancelCheckStride == 0 &&
      Opts.Cancel->cancelled()) {
    Bundle.Completed = false;
    Bundle.Error =
        "profileRun: cancelled after " + std::to_string(Steps) + " steps";
    return false;
  }
  return true;
}

} // namespace

ProfileBundle spt::referenceProfileRun(const Module &M,
                                       const std::string &FnName,
                                       const std::vector<Value> &Args,
                                       const ProfilerOptions &Opts) {
  ProfilerRun Run(M, Opts);
  return Run.run(FnName, Args);
}

//===- sim/SeqSim.cpp - Sequential (single-core) simulation ------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/SeqSim.h"

#include "analysis/Cfg.h"
#include "analysis/LoopInfo.h"
#include "sim/CoreTiming.h"
#include "support/Debug.h"

#include <memory>

using namespace spt;

namespace {

/// Cached structural analyses per function (loop tracking).
struct FuncLoops {
  CfgInfo Cfg;
  LoopNest Nest;
  /// Loop headed by each block (indexed by BlockId), or null.
  std::vector<const Loop *> HeaderOf;

  explicit FuncLoops(const Function &F)
      : Cfg(CfgInfo::compute(F)), Nest(LoopNest::compute(F, Cfg)) {
    HeaderOf.assign(F.numBlocks(), nullptr);
    for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI)
      HeaderOf[Nest.loop(LI)->Header] = Nest.loop(LI);
  }
};

struct ActiveLoop {
  const Loop *L = nullptr;
  LoopSeqStats *Stats = nullptr; ///< Cached; PerLoop never rehashes nodes.
};

struct ShadowFrame {
  const Function *F = nullptr;
  const FuncLoops *FL = nullptr;
  std::vector<ActiveLoop> Active;
};

} // namespace

SeqSimResult spt::runSequential(const Module &M, const std::string &FnName,
                                const std::vector<Value> &Args,
                                const MachineConfig &Machine,
                                uint64_t MaxSteps, uint64_t RngSeed) {
  const Function *F = M.findFunction(FnName);
  if (!F)
    spt_fatal("runSequential: no such function");

  InterpOptions IOpts;
  IOpts.RngSeed = RngSeed;
  Interpreter In(M, IOpts);
  In.startCall(F, Args);

  CacheHierarchy Cache(Machine);
  BranchPredictor Predictor;
  CoreTiming Core(Machine, Cache, Predictor);

  SeqSimResult Result;
  std::map<const Function *, std::unique_ptr<FuncLoops>> Cache_;
  auto loopsFor = [&](const Function *Fn) -> const FuncLoops & {
    auto It = Cache_.find(Fn);
    if (It == Cache_.end())
      It = Cache_.emplace(Fn, std::make_unique<FuncLoops>(*Fn)).first;
    return *It->second;
  };

  std::vector<ShadowFrame> Shadow;
  Shadow.push_back(ShadowFrame{F, &loopsFor(F), {}});

  auto enterBlock = [&](ShadowFrame &Sh, BlockId To) {
    while (!Sh.Active.empty() && !Sh.Active.back().L->contains(To))
      Sh.Active.pop_back();
    const Loop *L = To < Sh.FL->HeaderOf.size() ? Sh.FL->HeaderOf[To]
                                                : nullptr;
    if (!L)
      return;
    LoopSeqStats &Stats = Result.PerLoop[{Sh.F, L->Id}];
    if (!Sh.Active.empty() && Sh.Active.back().L == L) {
      ++Stats.Iterations;
      return;
    }
    Sh.Active.push_back(ActiveLoop{L, &Stats});
    ++Stats.Activations;
    ++Stats.Iterations;
  };
  enterBlock(Shadow.back(), F->entry());

  // Timing is attributed per segment: a run of steps over which the
  // active-loop sets are constant (bounded by block boundaries, calls and
  // returns). Per-step deltas telescope, so the per-loop sums equal
  // per-step attribution.
  uint64_t SegStart = Core.now();
  uint64_t SegSteps = 0;
  auto closeSegment = [&]() {
    const uint64_t Delta = Core.now() - SegStart;
    if (Delta != 0 || SegSteps != 0)
      for (ShadowFrame &Sh : Shadow)
        for (ActiveLoop &A : Sh.Active) {
          A.Stats->Subticks += Delta;
          A.Stats->Instrs += SegSteps;
        }
    SegStart = Core.now();
    SegSteps = 0;
  };

  auto Sink = makeStepSink([&](const StepResult &R) {
    ++SegSteps;
    Core.onStep(R, In.stackDepth());

    if (R.IsCallEnter) {
      closeSegment();
      const Function *Callee = In.topFrame().F;
      Shadow.push_back(ShadowFrame{Callee, &loopsFor(Callee), {}});
      enterBlock(Shadow.back(), Callee->entry());
    } else if (R.IsReturn) {
      closeSegment();
      Shadow.pop_back();
    } else if (R.IsBranch) {
      closeSegment();
      enterBlock(Shadow.back(), R.NextBlock);
    }
    return true;
  });
  In.runBatch(Sink, MaxSteps);
  if (!In.done())
    spt_fatal("runSequential: step budget exhausted (infinite loop?)");
  closeSegment();

  Result.Subticks = Core.now();
  Result.Instrs = Core.retired();
  Result.Result = In.returnValue();
  Result.Output = In.output();
  Result.MemoryHash = In.memoryHash();
  Result.BranchLookups = Predictor.lookups();
  Result.BranchMispredicts = Predictor.mispredicts();
  return Result;
}

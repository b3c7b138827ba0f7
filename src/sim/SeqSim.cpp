//===- sim/SeqSim.cpp - Sequential (single-core) simulation ------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/SeqSim.h"

#include "analysis/Cfg.h"
#include "analysis/LoopInfo.h"
#include "interp/DecodeEngine.h"
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
  /// The loop's Result.PerLoop entry, by header block; null until the
  /// header is first visited (PerLoop's map nodes never move).
  std::vector<LoopSeqStats *> StatsOf;

  explicit FuncLoops(const Function &F)
      : Cfg(CfgInfo::compute(F)), Nest(LoopNest::compute(F, Cfg)) {
    HeaderOf.assign(F.numBlocks(), nullptr);
    StatsOf.assign(F.numBlocks(), nullptr);
    for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI)
      HeaderOf[Nest.loop(LI)->Header] = Nest.loop(LI);
  }
};

struct ActiveLoop {
  const Loop *L = nullptr;
  LoopSeqStats *Stats = nullptr;
};

struct ShadowFrame {
  const Function *F = nullptr;
  FuncLoops *FL = nullptr;
  std::vector<ActiveLoop> Active;
};

/// The step sink behind runSequential: every record goes through the
/// core's timing model; block, call and return records also move the
/// loop shadow (out of line).
class SeqSink {
public:
  SeqSink(const Module &M, const Interpreter &In, CoreTiming &Core,
          SeqSimResult &Result)
      : In(In), Core(Core), Result(Result), Loops(M.numFunctions()) {}

  SPT_ALWAYS_INLINE bool onStep(const StepResult &R) {
    ++SegSteps;
    Core.onStep(R, In.stackDepth());
    if (R.IsCallEnter || R.IsReturn || R.IsBranch)
      onControl(R);
    return true;
  }

  /// Pushes the shadow frame of the entry function \p F.
  void enterFunction(const Function *F);
  /// Attributes the open segment to every active loop.
  void closeSegment();

private:
  SPT_NOINLINE void onControl(const StepResult &R);
  FuncLoops &loopsFor(const Function *F);
  void enterBlock(ShadowFrame &Sh, BlockId To);

  const Interpreter &In;
  CoreTiming &Core;
  SeqSimResult &Result;
  /// By module function index; built on first entry.
  std::vector<std::unique_ptr<FuncLoops>> Loops;
  std::vector<ShadowFrame> Shadow;
  // Timing is attributed per segment: a run of steps over which the
  // active-loop sets are constant (bounded by block boundaries, calls and
  // returns). Per-step deltas telescope, so the per-loop sums equal
  // per-step attribution.
  uint64_t SegStart = 0;
  uint64_t SegSteps = 0;
};

FuncLoops &SeqSink::loopsFor(const Function *F) {
  std::unique_ptr<FuncLoops> &Slot = Loops[F->index()];
  if (!Slot)
    Slot = std::make_unique<FuncLoops>(*F);
  return *Slot;
}

void SeqSink::enterBlock(ShadowFrame &Sh, BlockId To) {
  while (!Sh.Active.empty() && !Sh.Active.back().L->contains(To))
    Sh.Active.pop_back();
  const Loop *L = To < Sh.FL->HeaderOf.size() ? Sh.FL->HeaderOf[To] : nullptr;
  if (!L)
    return;
  LoopSeqStats *&Stats = Sh.FL->StatsOf[To];
  if (!Stats)
    Stats = &Result.PerLoop[{Sh.F, L->Id}];
  if (!Sh.Active.empty() && Sh.Active.back().L == L) {
    ++Stats->Iterations;
    return;
  }
  Sh.Active.push_back(ActiveLoop{L, Stats});
  ++Stats->Activations;
  ++Stats->Iterations;
}

void SeqSink::enterFunction(const Function *F) {
  Shadow.push_back(ShadowFrame{F, &loopsFor(F), {}});
  enterBlock(Shadow.back(), F->entry());
}

void SeqSink::closeSegment() {
  const uint64_t Delta = Core.now() - SegStart;
  if (Delta != 0 || SegSteps != 0)
    for (ShadowFrame &Sh : Shadow)
      for (ActiveLoop &A : Sh.Active) {
        A.Stats->Subticks += Delta;
        A.Stats->Instrs += SegSteps;
      }
  SegStart = Core.now();
  SegSteps = 0;
}

void SeqSink::onControl(const StepResult &R) {
  closeSegment();
  if (R.IsCallEnter)
    enterFunction(In.topFrame().F);
  else if (R.IsReturn)
    Shadow.pop_back();
  else
    enterBlock(Shadow.back(), R.NextBlock);
}

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
  SeqSink Sink(M, In, Core, Result);
  Sink.enterFunction(F);
  In.runWith(Sink, MaxSteps);
  if (!In.done())
    spt_fatal("runSequential: step budget exhausted (infinite loop?)");
  Sink.closeSegment();

  Result.Subticks = Core.now();
  Result.Instrs = Core.retired();
  Result.Result = In.returnValue();
  Result.Output = In.output();
  Result.MemoryHash = In.memoryHash();
  Result.BranchLookups = Predictor.lookups();
  Result.BranchMispredicts = Predictor.mispredicts();
  return Result;
}

//===- testing/ReferenceSptSim.cpp - Two-core reference SPT engine --------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The original one-main-one-spec SPT engine, kept verbatim as the
// differential baseline of the N-core chain engine in sim/SptSim.cpp. It
// shares the speculation scoreboard (sim/SpecMachinery.h) and runs its
// main core and ghost through lambda sinks on runBatch (testing/StepSink.h).
//
//===----------------------------------------------------------------------===//

#include "testing/ReferenceSptSim.h"

#include "sim/CoreTiming.h"
#include "sim/FaultInjector.h"
#include "sim/SpecMachinery.h"
#include "support/Debug.h"
#include "testing/StepSink.h"

#include <algorithm>
#include <map>
#include <memory>

using namespace spt;

namespace {

/// Per-step ghost memory semantics: reads hit the speculation buffer,
/// then the undo log (a stale value: violation), then shared memory;
/// writes are buffered.
class GhostMemHooks final : public Interpreter::MemHooks {
public:
  GhostMemHooks(const Interpreter &Ghost, SpecAddrMap &SpecBuffer,
                const SpecAddrMap &UndoLog, FaultInjector *Injector)
      : Ghost(Ghost), SpecBuffer(SpecBuffer), UndoLog(UndoLog),
        Injector(Injector) {}

  Value onLoad(uint64_t Addr, Value Fallback) override {
    LastLoadViolated = false;
    LastLoadInjected = false;
    LastLoadSpecWriter = -1;
    Value V = Fallback;
    if (const SpecAddrMap::Slot *Spec = SpecBuffer.find(Addr)) {
      LastLoadSpecWriter = Spec->Writer;
      V = Spec->V;
    } else if (const SpecAddrMap::Slot *Undo = UndoLog.find(Addr)) {
      LastLoadViolated = true;
      V = Undo->V;
    }
    // Injected corruption models a wrong speculative value the hardware
    // detects at commit: the consuming instruction joins the re-execution
    // slice (the driver loop checks LastLoadInjected).
    if (Injector && Injector->shouldFlipLoad()) {
      LastLoadInjected = true;
      V = Injector->corrupt(V);
    }
    return V;
  }

  bool onStore(uint64_t Addr, Value V) override {
    // The producing trace entry: the ghost runs from instrCount()==0 and
    // the count is bumped before each instruction executes, so the
    // instruction doing this store is entry instrCount()-1. (The batched
    // runner retires fused pairs in one dispatch, so a driver-maintained
    // "current entry" would go stale inside a pair.)
    SpecBuffer.insertOrAssign(Addr, V,
                              static_cast<int32_t>(Ghost.instrCount() - 1));
    return true; // Never reaches shared memory.
  }

  /// Outputs of the last load.
  bool LastLoadViolated = false;
  bool LastLoadInjected = false;
  int32_t LastLoadSpecWriter = -1;

private:
  const Interpreter &Ghost;
  SpecAddrMap &SpecBuffer;
  const SpecAddrMap &UndoLog;
  FaultInjector *Injector;
};

/// Simulates the speculative thread (one full iteration) as a ghost.
GhostOutcome runGhost(const Module &M, Interpreter &MainIn,
                      const PendingSpec &Spec, const MachineConfig &Machine,
                      CoreTiming &Core, GhostArena &A,
                      SpecAddrMap &SpecBuffer, uint64_t MaxGhostSteps,
                      FaultInjector *Injector, SimPerfCounters &Perf) {
  GhostOutcome Out;

  Interpreter Ghost(M, MainIn);
  Ghost.rng() = Spec.Rng;
  Ghost.startAt(Spec.Desc->F, Spec.Desc->PreForkEntry, 0, Spec.Regs);

  SpecBuffer.reset();
  GhostMemHooks Hooks(Ghost, SpecBuffer, Spec.UndoLog, Injector);
  Ghost.setMemHooks(&Hooks);

  Core.resetFor(Spec.ForkSubtick);
  A.beginRun(Spec.Desc->F->numRegs());

  uint32_t N = 0;
  auto Sink = makeStepSink([&](const StepResult &R) {
    const size_t Depth = Ghost.stackDepth();
    // Depth before the step: calls push their frame before the record,
    // returns pop theirs.
    const size_t DepthBefore =
        R.IsCallEnter ? Depth - 1 : (R.IsReturn ? Depth + 1 : Depth);
    Core.onStep(R, Depth);

    // Frame the instruction read its operands in: always the top frame
    // before the step (returns pop after reading; calls push after).
    const size_t SrcFrame = DepthBefore - 1;

    uint8_t Direct = 0;
    A.SrcBegin.push_back(static_cast<uint32_t>(A.SrcWriters.size()));
    for (Reg S : R.I->Srcs) {
      A.SrcWriters.push_back(A.writerOf(SrcFrame, S));
      // Violations: stale register reads at the loop frame.
      if (SrcFrame == 0 && !A.ghostWrote(S) && Spec.mainWrote(S))
        Direct = 1;
    }

    // Violations: stale memory reads, and injected value corruption
    // (modelled as hardware-detected misspeculation).
    if (R.IsLoad && (Hooks.LastLoadViolated || Hooks.LastLoadInjected))
      Direct = 1;

    // Violations: racing stateful builtins.
    if (R.I->Op == Opcode::Call) {
      const Function *Callee = M.function(R.I->calleeIndex());
      if (Callee->isExternal()) {
        if (Callee->name() == "rnd" && Spec.MainRndCalls > 0)
          Direct = 1;
        if (Callee->name() == "print_int" || Callee->name() == "print_fp")
          Direct = 1; // I/O cannot speculate.
      }
    }

    A.Direct.push_back(Direct);
    A.IsLoad.push_back(R.IsLoad);
    A.SpecWriter.push_back(R.IsLoad ? Hooks.LastLoadSpecWriter : -1);

    // Record writes.
    if (R.I->Dst != NoReg && !R.IsCallEnter) {
      A.setWriter(SrcFrame, R.I->Dst, static_cast<int32_t>(N));
      if (SrcFrame == 0)
        A.setGhostWrote(R.I->Dst);
    }
    ++N;

    // Stop conditions: completed one iteration, predicted loop exit, or
    // the loop frame returned.
    if (R.IsBranch && Depth == 1 &&
        R.NextBlock == Spec.Desc->PreForkEntry) {
      Out.Completed = true;
      return false;
    }
    if (R.IsKill && R.I->IntImm == Spec.LoopId) {
      Out.Completed = true; // Speculated that the loop ends.
      return false;
    }
    if (R.IsReturn && Depth == 0)
      return false; // Fell out of the loop frame: treat as squashed.
    return true;
  });
  runBatch(Ghost, Sink, MaxGhostSteps);

  Ghost.setMemHooks(nullptr);
  Out.EndSubtick = Core.now();
  Out.Instrs = N;
  A.SrcBegin.push_back(static_cast<uint32_t>(A.SrcWriters.size()));

  // Batched violation closure over this buffer epoch: one forward pass
  // over the SoA trace inherits re-execution from register producers and
  // speculation-buffer flow. Producers precede consumers, so the pass is
  // equivalent to the former per-access inline closure.
  ++Perf.ViolationBatches;
  A.Reexec.assign(N, 0);
  const uint64_t IssueSlot = SubticksPerCycle / Machine.IssueWidth;
  for (uint32_t I = 0; I != N; ++I) {
    uint8_t Rx = A.Direct[I];
    if (!Rx) {
      for (uint32_t S = A.SrcBegin[I]; S != A.SrcBegin[I + 1]; ++S) {
        const int32_t W = A.SrcWriters[S];
        if (W >= 0 && A.Reexec[static_cast<uint32_t>(W)]) {
          Rx = 1;
          break;
        }
      }
      if (!Rx && A.SpecWriter[I] >= 0 &&
          A.Reexec[static_cast<uint32_t>(A.SpecWriter[I])])
        Rx = 1;
    }
    A.Reexec[I] = Rx;
    if (Rx) {
      ++Out.ReexecInstrs;
      Out.ReexecSubticks +=
          IssueSlot + (A.IsLoad[I] ? Machine.L1.HitLatencyCycles *
                                         SubticksPerCycle
                                   : 0);
    }
  }
  Out.Violated = Out.ReexecInstrs != 0;
  return Out;
}

} // namespace

SptSimResult spt::runSptTwoCore(const Module &M,
                                const std::string &FnName,
                                const std::vector<Value> &Args,
                                const std::map<int64_t, SptLoopDesc> &Loops,
                                const MachineConfig &Machine,
                                uint64_t MaxSteps, uint64_t RngSeed,
                                FaultInjector *Injector, ObsContext *Obs) {
  ObsSpan RunSpan(Obs, "sim.runSpt");
  const Function *F = M.findFunction(FnName);
  if (!F)
    spt_fatal("runSpt: no such function");
  // An inert injector is the same as no injector.
  FaultInjector *FI = Injector && Injector->enabled() ? Injector : nullptr;

  InterpOptions IOpts;
  IOpts.RngSeed = RngSeed;
  Interpreter In(M, IOpts);
  In.startCall(F, Args);

  CacheHierarchy Cache(Machine);
  BranchPredictor MainPredictor, SpecPredictor;
  CoreTiming Core(Machine, Cache, MainPredictor);
  CoreTiming GhostCore(Machine, Cache, SpecPredictor);

  SptSimResult Result;

  // Iteration-boundary lookup: (function, block) -> loop id. A handful
  // of entries; a linear scan beats the former std::map per branch.
  struct BoundaryEntry {
    const Function *F;
    BlockId B;
    int64_t Id;
  };
  std::vector<BoundaryEntry> Boundaries;
  for (const auto &[Id, Desc] : Loops) {
    bool Replaced = false;
    for (BoundaryEntry &BE : Boundaries)
      if (BE.F == Desc.F && BE.B == Desc.PreForkEntry) {
        BE.Id = Id; // Same overwrite semantics as the former map.
        Replaced = true;
        break;
      }
    if (!Replaced)
      Boundaries.push_back({Desc.F, Desc.PreForkEntry, Id});
  }

  enum class Mode { Normal, PostFork, Replay };
  Mode State = Mode::Normal;
  PendingSpec Spec;
  GhostArena Arena;
  SpecAddrMap SpecBuffer;
  std::unique_ptr<MainPostForkHooks> PostForkHooks;
  uint64_t ReplayInstrs = 0;
  uint64_t ReexecInstrsTotal = 0;

  // Wall-time attribution per loop.
  std::map<int64_t, uint64_t> LoopEnterSubtick;

  auto Sink = makeStepSink([&](const StepResult &R) {
    const size_t Depth = In.stackDepth();

    if (State != Mode::Replay)
      Core.onStep(R, Depth);
    else
      ++ReplayInstrs;

    // Loop wall-time tracking.
    if (R.IsFork && Loops.count(R.I->IntImm) &&
        !LoopEnterSubtick.count(R.I->IntImm))
      LoopEnterSubtick[R.I->IntImm] = Core.now();
    if (R.IsKill && Loops.count(R.I->IntImm)) {
      auto It = LoopEnterSubtick.find(R.I->IntImm);
      if (It != LoopEnterSubtick.end()) {
        Result.PerLoop[R.I->IntImm].Subticks += Core.now() - It->second;
        LoopEnterSubtick.erase(It);
      }
    }

    switch (State) {
    case Mode::Normal:
      if (R.IsFork && Loops.count(R.I->IntImm)) {
        const SptLoopDesc &Desc = Loops.at(R.I->IntImm);
        if (In.topFrame().F == Desc.F) {
          // Spawn: snapshot the loop frame context.
          Core.charge(Machine.ForkOverhead);
          if (FI)
            Core.charge(FI->forkJitterSubticks());
          Spec.resetFor(R.I->IntImm, &Desc, Depth);
          In.copyTopRegs(Spec.Regs);
          if (FI && !Spec.Regs.empty() && FI->shouldFlipReg()) {
            // Corrupt one snapshot register — the speculative thread's
            // input state, where SVP's predicted values live. Marking it
            // as a main-thread write makes ghost reads of it violations,
            // i.e. the hardware detects the stale/wrong value and the
            // dependent slice is re-executed.
            const size_t Idx = FI->pickIndex(Spec.Regs.size());
            Spec.Regs[Idx] = FI->corrupt(Spec.Regs[Idx]);
            Spec.setMainWrote(static_cast<Reg>(Idx));
          }
          Spec.Rng = In.rng();
          Spec.ForkSubtick = Core.now();
          PostForkHooks = std::make_unique<MainPostForkHooks>(In, Spec);
          In.setMemHooks(PostForkHooks.get());
          State = Mode::PostFork;
          ++Result.PerLoop[Spec.LoopId].Forks;
        }
      }
      break;

    case Mode::PostFork: {
      // Track the main thread's post-fork effects.
      if (R.I->Dst != NoReg && !R.IsCallEnter && Depth == Spec.FrameDepth)
        Spec.setMainWrote(R.I->Dst);
      if (R.I->Op == Opcode::Call) {
        const Function *Callee = M.function(R.I->calleeIndex());
        if (Callee->isExternal()) {
          if (Callee->name() == "rnd")
            ++Spec.MainRndCalls;
          else if (Callee->name() == "print_int" ||
                   Callee->name() == "print_fp")
            ++Spec.MainIoCalls;
        }
      }

      // Loop exit while the speculative thread runs: kill it.
      if (R.IsKill && R.I->IntImm == Spec.LoopId) {
        ++Result.PerLoop[Spec.LoopId].KilledBeforeJoin;
        In.setMemHooks(nullptr);
        PostForkHooks.reset();
        State = Mode::Normal;
        break;
      }

      // Join: the main thread reached the next iteration's entry.
      if (R.IsBranch && Depth == Spec.FrameDepth &&
          R.NextBlock == Spec.Desc->PreForkEntry) {
        SptLoopRunStats &Stats = Result.PerLoop[Spec.LoopId];
        In.setMemHooks(nullptr);
        PostForkHooks.reset();

        GhostOutcome Ghost =
            runGhost(M, In, Spec, Machine, GhostCore, Arena, SpecBuffer,
                     /*MaxGhostSteps=*/1u << 20, FI, Result.Perf);
        if (Ghost.Completed && FI && FI->shouldForceSquash())
          Ghost.Completed = false; // Injected: hardware lost the buffer.
        if (!Ghost.Completed) {
          // Squashed: the main thread simply executes the iteration
          // itself at full cost.
          ++Stats.Squashed;
          State = Mode::Normal;
          break;
        }
        ++Stats.Joins;
        Stats.SpecInstrs += Ghost.Instrs;
        Stats.ReexecInstrs += Ghost.ReexecInstrs;
        ReexecInstrsTotal += Ghost.ReexecInstrs;
        if (Ghost.Violated)
          ++Stats.ViolatedThreads;

        const uint64_t Joined = std::max(Core.now(), Ghost.EndSubtick);
        Core.advanceTo(Joined);
        Core.charge(Machine.CommitOverhead);
        if (FI)
          Core.charge(FI->commitJitterSubticks());
        Core.advanceTo(Core.now() + Ghost.ReexecSubticks);
        State = Mode::Replay;
      }
      break;
    }

    case Mode::Replay:
      // The speculative thread already executed this iteration; the main
      // interpreter replays it functionally with the clock frozen.
      if (R.IsBranch && Depth == Spec.FrameDepth &&
          R.NextBlock == Spec.Desc->PreForkEntry) {
        State = Mode::Normal;
      } else if (R.IsKill && R.I->IntImm == Spec.LoopId) {
        // Loop ended inside the replayed iteration (wall time was already
        // attributed by the generic kill handling above).
        State = Mode::Normal;
      }
      break;
    }

    // Iteration counting at boundaries (any mode).
    if (R.IsBranch && !Boundaries.empty()) {
      const Function *TopF = In.done() ? nullptr : In.topFrame().F;
      for (const BoundaryEntry &BE : Boundaries)
        if (BE.F == TopF && BE.B == R.NextBlock) {
          ++Result.PerLoop[BE.Id].Iterations;
          break;
        }
    }
    return true;
  });
  runBatch(In, Sink, MaxSteps);
  if (!In.done())
    spt_fatal("runSpt: step budget exhausted (infinite loop?)");

  Result.Subticks = Core.now();
  Result.Instrs = Core.retired() + ReplayInstrs + ReexecInstrsTotal;
  Result.Result = In.returnValue();
  Result.Output = In.output();
  Result.MemoryHash = In.memoryHash();

  // One batched flush of the run's speculation counters; the simulation
  // loop above never touches the registry.
  if (Obs) {
    obsAdd(Obs, "sim.runs", 1);
    obsAdd(Obs, "sim.chaos_runs", FI ? 1 : 0);
    SptLoopRunStats Tot;
    for (const auto &[Id, S] : Result.PerLoop) {
      (void)Id;
      Tot.Forks += S.Forks;
      Tot.Joins += S.Joins;
      Tot.KilledBeforeJoin += S.KilledBeforeJoin;
      Tot.Squashed += S.Squashed;
      Tot.ViolatedThreads += S.ViolatedThreads;
      Tot.SpecInstrs += S.SpecInstrs;
      Tot.ReexecInstrs += S.ReexecInstrs;
      Tot.Iterations += S.Iterations;
    }
    obsAdd(Obs, "sim.forks", Tot.Forks);
    obsAdd(Obs, "sim.joins", Tot.Joins);
    obsAdd(Obs, "sim.killed_before_join", Tot.KilledBeforeJoin);
    obsAdd(Obs, "sim.squashes", Tot.Squashed);
    // Every violated join is recovered by main-core re-execution
    // (sequential semantics hold by construction), so violations and
    // recoveries coincide; clean joins banked their speculative work.
    obsAdd(Obs, "sim.recoveries", Tot.ViolatedThreads);
    obsAdd(Obs, "sim.clean_joins", Tot.Joins - Tot.ViolatedThreads);
    obsAdd(Obs, "sim.spec_instrs", Tot.SpecInstrs);
    obsAdd(Obs, "sim.reexec_instrs", Tot.ReexecInstrs);
    obsAdd(Obs, "sim.iterations", Tot.Iterations);
    obsSample(Obs, "sim.reexec_per_run", Tot.ReexecInstrs);
    obsAdd(Obs, "sim.violation.batch", Result.Perf.ViolationBatches);
  }
  return Result;
}

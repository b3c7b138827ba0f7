//===- sim/SptSim.cpp - Speculative (SPT) simulation -------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Hot-path layout: the speculation scoreboard (speculation buffer, undo
// log, last-writer tables, main/ghost register-write sets) lives in flat
// open-addressing hashes, epoch-tagged arenas and bitsets reused across
// speculative threads — the former std::map/std::set machinery was ~10%
// of a whole-suite profile. Violation detection is batched: the ghost
// records a structure-of-arrays trace (direct-violation flags plus
// resolved producer indices) and one post-pass per buffer epoch closes it
// over the dynamic dependences, replacing the per-access map scans. The
// pass is order-equivalent to the former inline closure because producers
// always precede consumers in the trace.
//
// The scoreboard lives in sim/SpecMachinery.h, shared with the two-core
// reference engine (testing/ReferenceSptSim.cpp, a test oracle).
//
// The engine runs MachineConfig::Cores-1 speculative chain slots. A
// ghost's own fork marker arms the next slot (snapshot registers + RNG at
// the ghost's clock, fork overhead charged on the arming core); slots are
// simulated in order at the join, reading through their own buffer, then
// every earlier slot's buffer (newest first — a hit whose producing store
// re-executes is a cross-core violation), then the main core's undo log,
// then memory. Committed slots fold into the main clock in program order
// (commit overhead + re-execution slice each); the first squashed slot
// cuts the chain and discards everything later. At Cores=2 the chain
// degenerates to exactly the reference engine — byte-identical reports,
// MemoryHash and counters, enforced by the kway-diff oracle and
// tests/kway_sim_test.cpp.
//
// The main core and chain ghosts are concrete step sinks (MainCoreSink,
// ChainGhostSink): the decoded engine is instantiated with each
// (Interpreter::runWith), so per-step timing and trace recording are
// compiled into every opcode handler, while the fork/join state machine
// and chain arming run out of line. Stateful builtins are resolved to a
// kind per module function index once per run.
//
//===----------------------------------------------------------------------===//

#include "sim/SptSim.h"

#include "interp/DecodeEngine.h"
#include "sim/CoreTiming.h"
#include "sim/FaultInjector.h"
#include "sim/SpecMachinery.h"
#include "support/Compiler.h"
#include "support/Debug.h"

#include <algorithm>
#include <map>
#include <memory>

using namespace spt;

namespace {

/// The stateful builtin of every module function, by function index:
/// resolved once per run, not by name per call.
std::vector<StatefulBuiltin> resolveStatefulBuiltins(const Module &M) {
  std::vector<StatefulBuiltin> Kinds(M.numFunctions());
  for (uint32_t I = 0; I != M.numFunctions(); ++I)
    Kinds[I] = statefulBuiltinOf(*M.function(I));
  return Kinds;
}

/// The builtin a record called: the kind of an external call's callee,
/// None for everything else. Only value records can be external calls, so
/// with a concrete sink the test folds away for the other record kinds.
SPT_ALWAYS_INLINE StatefulBuiltin
calledBuiltin(const StepResult &R, const StatefulBuiltin *Kinds) {
  if (!R.isValueOp() || R.I->Op != Opcode::Call)
    return StatefulBuiltin::None;
  return Kinds[R.I->calleeIndex()];
}

/// One speculative chain slot of the generalized engine: the snapshot a
/// fork captured, the staleness of that snapshot relative to committed
/// sequential state, and the slot's speculative writes. Slot s
/// speculates iteration i+s+1 of a fork taken in iteration i; slot 0 is
/// armed by the main core's fork, slot s+1 by slot s's own fork marker.
/// Arena-reused across joins.
struct ChainSlot {
  bool Armed = false;
  std::vector<Value> Regs;
  Random Rng;
  uint64_t ForkSubtick = 0;
  /// Loop registers whose snapshot value may differ from committed
  /// sequential state (the generalization of the two-core engine's
  /// main-wrote-post-fork set). Reads of these are violations.
  std::vector<uint64_t> StaleBits;
  /// The snapshot RNG state races an earlier thread's rnd() use.
  bool StaleRnd = false;
  /// This slot's buffered speculative stores.
  SpecAddrMap Buffer;
  /// Closure output, persisted while later slots run: a load forwarded
  /// from a re-executed store is a cross-core violation.
  std::vector<uint8_t> Reexec;
  GhostOutcome Out;
  /// Trace index of this ghost's fork marker (arms the next slot), or
  /// -1. Writes after it post-date the next slot's snapshot.
  int32_t ArmIndex = -1;
  uint64_t RndCallsAfterArm = 0;

  SPT_ALWAYS_INLINE bool staleReg(Reg R) const {
    return (R >> 6) < StaleBits.size() &&
           (StaleBits[R >> 6] >> (R & 63)) & 1;
  }
  void setStaleReg(Reg R) {
    if ((R >> 6) >= StaleBits.size())
      StaleBits.resize((R >> 6) + 1, 0);
    StaleBits[R >> 6] |= 1ull << (R & 63);
  }
};

/// Ghost memory semantics for a chain slot: reads hit the slot's own
/// buffer, then every earlier slot's buffer newest-first (program order:
/// main < slot 0 < slot 1 < ...; a hit forwarded from a re-executed
/// store is a cross-core violation), then the main core's undo log (a
/// stale value: violation), then shared memory. Writes are buffered. At
/// slot 0 the predecessor walk is empty and this is exactly the two-core
/// reference engine's ghost memory (testing/ReferenceSptSim.cpp).
class ChainMemHooks final : public Interpreter::MemHooks {
public:
  ChainMemHooks(const Interpreter &Ghost, std::vector<ChainSlot> &Chain,
                uint32_t SlotIdx, const SpecAddrMap &UndoLog,
                FaultInjector *Injector)
      : Ghost(Ghost), Chain(Chain), SlotIdx(SlotIdx), UndoLog(UndoLog),
        Injector(Injector) {}

  Value onLoad(uint64_t Addr, Value Fallback) override {
    LastLoadViolated = false;
    LastLoadInjected = false;
    LastLoadSpecWriter = -1;
    Value V = Fallback;
    if (const SpecAddrMap::Slot *Spec = Chain[SlotIdx].Buffer.find(Addr)) {
      LastLoadSpecWriter = Spec->Writer;
      V = Spec->V;
    } else {
      bool Hit = false;
      for (uint32_t P = SlotIdx; P-- > 0;) {
        if (const SpecAddrMap::Slot *Pred = Chain[P].Buffer.find(Addr)) {
          V = Pred->V;
          // Cross-core violation closure: the forwarded value comes from
          // a store the main core will re-execute.
          if (Pred->Writer >= 0 &&
              Chain[P].Reexec[static_cast<uint32_t>(Pred->Writer)])
            LastLoadViolated = true;
          Hit = true;
          break;
        }
      }
      if (!Hit) {
        if (const SpecAddrMap::Slot *Undo = UndoLog.find(Addr)) {
          LastLoadViolated = true;
          V = Undo->V;
        }
      }
    }
    if (Injector && Injector->shouldFlipLoad()) {
      LastLoadInjected = true;
      V = Injector->corrupt(V);
    }
    return V;
  }

  bool onStore(uint64_t Addr, Value V) override {
    Chain[SlotIdx].Buffer.insertOrAssign(
        Addr, V, static_cast<int32_t>(Ghost.instrCount() - 1));
    return true; // Never reaches shared memory.
  }

  bool LastLoadViolated = false;
  bool LastLoadInjected = false;
  int32_t LastLoadSpecWriter = -1;

private:
  const Interpreter &Ghost;
  std::vector<ChainSlot> &Chain;
  const uint32_t SlotIdx;
  const SpecAddrMap &UndoLog;
  FaultInjector *Injector;
};

/// The step sink of one chain ghost: times the step on the slot's core
/// and appends it to the arena's violation trace. The fork marker that
/// arms the next slot is handled out of line.
class ChainGhostSink {
public:
  ChainGhostSink(Interpreter &Ghost, const PendingSpec &Spec,
                 ChainSlot &Slot, ChainSlot *Next,
                 const MachineConfig &Machine, CoreTiming &Core,
                 GhostArena &A, const ChainMemHooks &Hooks,
                 const StatefulBuiltin *Builtins, FaultInjector *Injector,
                 GhostOutcome &Out)
      : Ghost(Ghost), Spec(Spec), Slot(Slot), Next(Next), Machine(Machine),
        Core(Core), A(A), Hooks(Hooks), Builtins(Builtins),
        Injector(Injector), Out(Out) {}

  SPT_ALWAYS_INLINE bool onStep(const StepResult &R) {
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
      if (SrcFrame == 0 && !A.ghostWrote(S) && Slot.staleReg(S))
        Direct = 1;
    }

    // Violations: stale memory reads, and injected value corruption
    // (modelled as hardware-detected misspeculation).
    if (R.IsLoad && (Hooks.LastLoadViolated || Hooks.LastLoadInjected))
      Direct = 1;

    // Violations: racing stateful builtins.
    switch (calledBuiltin(R, Builtins)) {
    case StatefulBuiltin::Rnd:
      if (Slot.StaleRnd)
        Direct = 1;
      if (Slot.ArmIndex >= 0)
        ++Slot.RndCallsAfterArm;
      break;
    case StatefulBuiltin::Io:
      Direct = 1; // I/O cannot speculate.
      break;
    case StatefulBuiltin::None:
      break;
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

    if (R.IsFork)
      onFork(R, SrcFrame);
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
      Out.CompletedByKill = true;
      return false;
    }
    if (R.IsReturn && Depth == 0)
      return false; // Fell out of the loop frame: treat as squashed.
    return true;
  }

  /// Trace entries recorded.
  uint32_t N = 0;

private:
  /// Chain arming: this ghost's own fork marker spawns the next slot,
  /// exactly as the main core's fork spawned this one.
  SPT_NOINLINE void onFork(const StepResult &R, size_t SrcFrame);

  Interpreter &Ghost;
  const PendingSpec &Spec;
  ChainSlot &Slot;
  ChainSlot *Next;
  const MachineConfig &Machine;
  CoreTiming &Core;
  GhostArena &A;
  const ChainMemHooks &Hooks;
  const StatefulBuiltin *Builtins;
  FaultInjector *Injector;
  GhostOutcome &Out;
};

void ChainGhostSink::onFork(const StepResult &R, size_t SrcFrame) {
  if (R.I->IntImm != Spec.LoopId || SrcFrame != 0 || !Next || Next->Armed)
    return;
  Core.charge(Machine.ForkOverhead);
  if (Injector)
    Core.charge(Injector->forkJitterSubticks());
  Next->Armed = true;
  Ghost.copyTopRegs(Next->Regs);
  if (Injector && !Next->Regs.empty() && Injector->shouldFlipReg()) {
    const size_t Idx = Injector->pickIndex(Next->Regs.size());
    Next->Regs[Idx] = Injector->corrupt(Next->Regs[Idx]);
    Next->setStaleReg(static_cast<Reg>(Idx));
  }
  Next->Rng = Ghost.rng();
  Next->ForkSubtick = Core.now();
  Slot.ArmIndex = static_cast<int32_t>(N);
}

/// Simulates chain slot \p SlotIdx as a ghost. Structured exactly like
/// the two-core reference engine's ghost, with three additions: staleness
/// comes from the slot (not the main-thread write set), loads walk the
/// predecessor buffers, and the slot's own fork marker arms \p Next.
GhostOutcome runChainGhost(const Module &M, Interpreter &MainIn,
                           const PendingSpec &Spec,
                           std::vector<ChainSlot> &Chain, uint32_t SlotIdx,
                           ChainSlot *Next, const MachineConfig &Machine,
                           CoreTiming &Core, GhostArena &A,
                           const StatefulBuiltin *Builtins,
                           uint64_t MaxGhostSteps,
                           FaultInjector *Injector, SimPerfCounters &Perf) {
  GhostOutcome Out;
  ChainSlot &Slot = Chain[SlotIdx];

  Interpreter Ghost(M, MainIn);
  Ghost.rng() = Slot.Rng;
  Ghost.startAt(Spec.Desc->F, Spec.Desc->PreForkEntry, 0, Slot.Regs);

  Slot.Buffer.reset();
  ChainMemHooks Hooks(Ghost, Chain, SlotIdx, Spec.UndoLog, Injector);
  Ghost.setMemHooks(&Hooks);

  Core.resetFor(Slot.ForkSubtick);
  A.beginRun(Spec.Desc->F->numRegs());
  Slot.ArmIndex = -1;
  Slot.RndCallsAfterArm = 0;

  ChainGhostSink Sink(Ghost, Spec, Slot, Next, Machine, Core, A, Hooks,
                      Builtins, Injector, Out);
  Ghost.runWith(Sink, MaxGhostSteps);
  const uint32_t N = Sink.N;

  Ghost.setMemHooks(nullptr);
  Out.EndSubtick = Core.now();
  Out.Instrs = N;
  A.SrcBegin.push_back(static_cast<uint32_t>(A.SrcWriters.size()));

  // Batched violation closure, computed into the slot's persistent
  // Reexec column (later slots' loads consult it).
  ++Perf.ViolationBatches;
  Slot.Reexec.assign(N, 0);
  const uint64_t IssueSlot = SubticksPerCycle / Machine.IssueWidth;
  for (uint32_t I = 0; I != N; ++I) {
    uint8_t Rx = A.Direct[I];
    if (!Rx) {
      for (uint32_t S = A.SrcBegin[I]; S != A.SrcBegin[I + 1]; ++S) {
        const int32_t W = A.SrcWriters[S];
        if (W >= 0 && Slot.Reexec[static_cast<uint32_t>(W)]) {
          Rx = 1;
          break;
        }
      }
      if (!Rx && A.SpecWriter[I] >= 0 &&
          Slot.Reexec[static_cast<uint32_t>(A.SpecWriter[I])])
        Rx = 1;
    }
    Slot.Reexec[I] = Rx;
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

/// Propagates snapshot staleness from a committed ghost to the slot it
/// armed: a loop register the ghost wrote after the arm point is stale
/// (the snapshot predates the write); one written before is stale iff
/// the producing instruction re-executes; an untouched one inherits the
/// ghost's own staleness. Must run while \p A still holds the ghost's
/// writer tables (before the next ghost's beginRun).
void propagateStaleness(const ChainSlot &Slot, ChainSlot &Next,
                        const GhostArena &A, unsigned LoopRegs) {
  for (unsigned R = 0; R != LoopRegs; ++R) {
    const int32_t W = A.writerOf(0, static_cast<Reg>(R));
    bool Stale;
    if (W < 0)
      Stale = Slot.staleReg(static_cast<Reg>(R));
    else if (Slot.ArmIndex >= 0 && W > Slot.ArmIndex)
      Stale = true;
    else
      Stale = Slot.Reexec[static_cast<uint32_t>(W)] != 0;
    if (Stale)
      Next.setStaleReg(static_cast<Reg>(R));
  }
  if (Slot.StaleRnd || Slot.RndCallsAfterArm > 0)
    Next.StaleRnd = true;
}

/// Iteration-boundary lookup: (function, block) -> loop id. A handful of
/// entries; a linear scan beats a map per branch.
struct BoundaryEntry {
  const Function *F;
  BlockId B;
  int64_t Id;
};

/// The generalized engine's main core: the step sink that times the main
/// thread and runs the fork / post-fork / join / replay state machine.
/// Per step it only times the instruction (or counts a replayed one) and,
/// after a fork, records the main thread's register writes and builtin
/// calls; forks, kills and branches go to the out-of-line state machine,
/// which simulates the speculative chain at each join.
class MainCoreSink {
public:
  MainCoreSink(const Module &M, Interpreter &In,
               const std::map<int64_t, SptLoopDesc> &Loops,
               const MachineConfig &Machine, CoreTiming &Core,
               std::vector<CoreTiming> &GhostCores, FaultInjector *FI,
               SptSimResult &Result)
      : M(M), In(In), Loops(Loops), Machine(Machine), Core(Core),
        GhostCores(GhostCores), FI(FI), Result(Result),
        K(static_cast<uint32_t>(GhostCores.size())), Chain(K),
        Builtins(resolveStatefulBuiltins(M)) {
    for (const auto &[Id, Desc] : Loops) {
      bool Replaced = false;
      for (BoundaryEntry &BE : Boundaries)
        if (BE.F == Desc.F && BE.B == Desc.PreForkEntry) {
          BE.Id = Id; // Same overwrite semantics as a map.
          Replaced = true;
          break;
        }
      if (!Replaced)
        Boundaries.push_back({Desc.F, Desc.PreForkEntry, Id});
    }
  }

  SPT_ALWAYS_INLINE bool onStep(const StepResult &R) {
    const size_t Depth = In.stackDepth();
    if (State != Mode::Replay) {
      Core.onStep(R, Depth);
    } else {
      ++ReplayInstrs;
    }

    if (State == Mode::PostFork) {
      // Track the main thread's post-fork effects.
      if (R.I->Dst != NoReg && !R.IsCallEnter && Depth == Spec.FrameDepth)
        Spec.setMainWrote(R.I->Dst);
      switch (calledBuiltin(R, Builtins.data())) {
      case StatefulBuiltin::Rnd:
        ++Spec.MainRndCalls;
        break;
      case StatefulBuiltin::Io:
        ++Spec.MainIoCalls;
        break;
      case StatefulBuiltin::None:
        break;
      }
    }

    if (R.IsFork || R.IsKill || R.IsBranch)
      onControl(R, Depth);
    return true;
  }

  uint64_t ReplayInstrs = 0;
  uint64_t ReexecInstrsTotal = 0;

private:
  SPT_NOINLINE void onControl(const StepResult &R, size_t Depth);
  void fork(const StepResult &R, size_t Depth);
  void join();

  const Module &M;
  Interpreter &In;
  const std::map<int64_t, SptLoopDesc> &Loops;
  const MachineConfig &Machine;
  CoreTiming &Core;
  std::vector<CoreTiming> &GhostCores;
  FaultInjector *FI;
  SptSimResult &Result;
  /// Speculative chain slots (Cores - 1).
  const uint32_t K;

  enum class Mode { Normal, PostFork, Replay };
  Mode State = Mode::Normal;
  PendingSpec Spec;
  GhostArena Arena;
  std::vector<ChainSlot> Chain;
  std::unique_ptr<MainPostForkHooks> PostForkHooks;
  uint32_t ReplayRemaining = 0;
  std::vector<StatefulBuiltin> Builtins;
  std::vector<BoundaryEntry> Boundaries;
  /// Wall-time attribution per loop.
  std::map<int64_t, uint64_t> LoopEnterSubtick;
};

void MainCoreSink::onControl(const StepResult &R, size_t Depth) {
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
    if (K != 0 && R.IsFork && Loops.count(R.I->IntImm))
      fork(R, Depth);
    break;

  case Mode::PostFork:
    // Loop exit while the speculative chain runs: kill it.
    if (R.IsKill && R.I->IntImm == Spec.LoopId) {
      ++Result.PerLoop[Spec.LoopId].KilledBeforeJoin;
      In.setMemHooks(nullptr);
      PostForkHooks.reset();
      State = Mode::Normal;
      break;
    }
    // Join: the main thread reached the next iteration's entry.
    if (R.IsBranch && Depth == Spec.FrameDepth &&
        R.NextBlock == Spec.Desc->PreForkEntry)
      join();
    break;

  case Mode::Replay:
    // Speculatively executed iterations are replayed functionally with
    // the clock frozen, one boundary visit per committed slot.
    if (R.IsBranch && Depth == Spec.FrameDepth &&
        R.NextBlock == Spec.Desc->PreForkEntry) {
      if (--ReplayRemaining == 0)
        State = Mode::Normal;
    } else if (R.IsKill && R.I->IntImm == Spec.LoopId) {
      // Loop ended inside a replayed iteration (wall time was already
      // attributed above).
      ReplayRemaining = 0;
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
}

void MainCoreSink::fork(const StepResult &R, size_t Depth) {
  const SptLoopDesc &Desc = Loops.at(R.I->IntImm);
  if (In.topFrame().F != Desc.F)
    return;
  // Spawn: snapshot the loop frame context.
  Core.charge(Machine.ForkOverhead);
  if (FI)
    Core.charge(FI->forkJitterSubticks());
  Spec.resetFor(R.I->IntImm, &Desc, Depth);
  In.copyTopRegs(Spec.Regs);
  if (FI && !Spec.Regs.empty() && FI->shouldFlipReg()) {
    // Corrupt one snapshot register — the speculative thread's input
    // state, where SVP's predicted values live. Marking it as a
    // main-thread write makes ghost reads of it violations, i.e. the
    // hardware detects the stale/wrong value and the dependent slice is
    // re-executed.
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
  ++Result.CoreStats[0].Forks;
}

void MainCoreSink::join() {
  // Simulate the speculative chain in order, each committed slot arming
  // (possibly) the next.
  SptLoopRunStats &Stats = Result.PerLoop[Spec.LoopId];
  In.setMemHooks(nullptr);
  PostForkHooks.reset();

  // Slot 0 inherits the main fork's snapshot; later slots reset until
  // their predecessor arms them.
  const unsigned LoopRegs = Spec.Desc->F->numRegs();
  Chain[0].Armed = true;
  Chain[0].Regs = Spec.Regs;
  Chain[0].Rng = Spec.Rng;
  Chain[0].ForkSubtick = Spec.ForkSubtick;
  Chain[0].StaleBits = Spec.MainRegWriteBits;
  Chain[0].StaleRnd = Spec.MainRndCalls > 0;
  for (uint32_t S = 1; S < K; ++S) {
    Chain[S].Armed = false;
    Chain[S].StaleBits.assign((LoopRegs + 63) / 64, 0);
    Chain[S].StaleRnd = false;
  }

  uint32_t Committed = 0;
  bool Cut = false;
  for (uint32_t S = 0; S != K && Chain[S].Armed && !Cut; ++S) {
    ChainSlot *Next = S + 1 < K ? &Chain[S + 1] : nullptr;
    Chain[S].Out = runChainGhost(M, In, Spec, Chain, S, Next, Machine,
                                 GhostCores[S], Arena, Builtins.data(),
                                 /*MaxGhostSteps=*/1u << 20, FI,
                                 Result.Perf);
    if (Next && Next->Armed) {
      ++Stats.Forks;
      ++Result.CoreStats[S + 1].Forks;
    }
    if (Chain[S].Out.Completed && FI && FI->shouldForceSquash())
      Chain[S].Out.Completed = false; // Injected: hardware lost the buffer.
    if (!Chain[S].Out.Completed) {
      Cut = true; // First failure cuts the chain.
      break;
    }
    ++Committed;
    if (Chain[S].Out.CompletedByKill)
      Cut = true; // Loop predicted to end: no later iteration.
    else if (Next && Next->Armed)
      propagateStaleness(Chain[S], *Next, Arena, LoopRegs);
  }

  // In-order commit fold over the committed prefix.
  for (uint32_t S = 0; S != Committed; ++S) {
    const GhostOutcome &O = Chain[S].Out;
    ++Stats.Joins;
    Stats.SpecInstrs += O.Instrs;
    Stats.ReexecInstrs += O.ReexecInstrs;
    ReexecInstrsTotal += O.ReexecInstrs;
    if (O.Violated)
      ++Stats.ViolatedThreads;
    ++Result.CoreStats[S].Commits;
    Core.advanceTo(std::max(Core.now(), O.EndSubtick));
    Core.charge(Machine.CommitOverhead);
    if (FI)
      Core.charge(FI->commitJitterSubticks());
    Core.advanceTo(Core.now() + O.ReexecSubticks);
  }
  // Everything armed beyond the committed prefix is squashed.
  for (uint32_t S = Committed; S != K; ++S)
    if (Chain[S].Armed) {
      ++Stats.Squashed;
      ++Result.CoreStats[S].Squashes;
    }

  if (Committed == 0) {
    // Squashed: the main thread simply executes the iteration itself at
    // full cost.
    State = Mode::Normal;
  } else {
    ReplayRemaining = Committed;
    State = Mode::Replay;
  }
}

} // namespace

SptSimResult spt::runSpt(const Module &M, const std::string &FnName,
                         const std::vector<Value> &Args,
                         const std::map<int64_t, SptLoopDesc> &Loops,
                         const MachineConfig &Machine, uint64_t MaxSteps,
                         uint64_t RngSeed, FaultInjector *Injector,
                         ObsContext *Obs) {
  ObsSpan RunSpan(Obs, "sim.runSpt");
  const Function *F = M.findFunction(FnName);
  if (!F)
    spt_fatal("runSpt: no such function");
  FaultInjector *FI = Injector && Injector->enabled() ? Injector : nullptr;

  InterpOptions IOpts;
  IOpts.RngSeed = RngSeed;
  Interpreter In(M, IOpts);
  In.startCall(F, Args);

  // One main core plus K speculative chain slots. The predictors and
  // core clocks persist across joins (slot s always runs on core s), the
  // cache hierarchy is shared by every core.
  const uint32_t K = Machine.Cores > 0 ? Machine.Cores - 1 : 0;
  CacheHierarchy Cache(Machine);
  BranchPredictor MainPredictor;
  CoreTiming Core(Machine, Cache, MainPredictor);
  std::vector<BranchPredictor> GhostPredictors(K);
  std::vector<CoreTiming> GhostCores;
  GhostCores.reserve(K);
  for (uint32_t S = 0; S != K; ++S)
    GhostCores.emplace_back(Machine, Cache, GhostPredictors[S]);

  SptSimResult Result;
  Result.CoreStats.resize(K);

  MainCoreSink Sink(M, In, Loops, Machine, Core, GhostCores, FI, Result);
  In.runWith(Sink, MaxSteps);
  if (!In.done())
    spt_fatal("runSpt: step budget exhausted (infinite loop?)");

  Result.Subticks = Core.now();
  Result.Instrs = Core.retired() + Sink.ReplayInstrs + Sink.ReexecInstrsTotal;
  Result.Result = In.returnValue();
  Result.Output = In.output();
  Result.MemoryHash = In.memoryHash();

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
    obsAdd(Obs, "sim.recoveries", Tot.ViolatedThreads);
    obsAdd(Obs, "sim.clean_joins", Tot.Joins - Tot.ViolatedThreads);
    obsAdd(Obs, "sim.spec_instrs", Tot.SpecInstrs);
    obsAdd(Obs, "sim.reexec_instrs", Tot.ReexecInstrs);
    obsAdd(Obs, "sim.iterations", Tot.Iterations);
    obsSample(Obs, "sim.reexec_per_run", Tot.ReexecInstrs);
    obsAdd(Obs, "sim.violation.batch", Result.Perf.ViolationBatches);
    // Generalized-engine chain telemetry (sim.core.*): per-slot arm /
    // commit / squash totals, flushed batched like everything else.
    uint64_t CommitsTot = 0, SquashTot = 0, ChainForks = 0;
    for (uint32_t S = 0; S != K; ++S) {
      CommitsTot += Result.CoreStats[S].Commits;
      SquashTot += Result.CoreStats[S].Squashes;
      if (S > 0)
        ChainForks += Result.CoreStats[S].Forks;
    }
    obsAdd(Obs, "sim.core.commits", CommitsTot);
    obsAdd(Obs, "sim.core.squashes", SquashTot);
    obsAdd(Obs, "sim.core.chain_forks", ChainForks);
  }
  return Result;
}

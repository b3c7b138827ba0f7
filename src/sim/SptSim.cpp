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
// Two engines share this machinery (SimOptions::Engine):
//
//   * TwoCoreReference — the original one-main-one-spec driver, kept
//     verbatim below as the differential baseline.
//   * Generalized — MachineConfig::Cores-1 speculative chain slots. A
//     ghost's own fork marker arms the next slot (snapshot registers +
//     RNG at the ghost's clock, fork overhead charged on the arming
//     core); slots are simulated in order at the join, reading through
//     their own buffer, then every earlier slot's buffer (newest first —
//     a hit whose producing store re-executes is a cross-core
//     violation), then the main core's undo log, then memory. Committed
//     slots fold into the main clock in program order (commit overhead +
//     re-execution slice each); the first squashed slot cuts the chain
//     and discards everything later. At Cores=2 the chain degenerates to
//     exactly the reference engine — byte-identical reports, MemoryHash
//     and counters, enforced by the kway-diff oracle and
//     tests/kway_sim_test.cpp.
//
//===----------------------------------------------------------------------===//

#include "sim/SptSim.h"

#include "sim/CoreTiming.h"
#include "sim/FaultInjector.h"
#include "support/Debug.h"

#include <algorithm>
#include <map>
#include <memory>

using namespace spt;

namespace {

/// Open-addressing (linear probe) address map with O(1) epoch-based
/// clearing: the speculation buffer and the undo log. Never shrinks; one
/// arena serves every speculative thread of a run.
class SpecAddrMap {
public:
  struct Slot {
    uint64_t Addr = 0;
    uint64_t Epoch = 0;
    Value V{};
    int32_t Writer = -1;
  };

  void reset() {
    ++Epoch;
    Live = 0;
  }

  const Slot *find(uint64_t Addr) const {
    if (Live == 0)
      return nullptr;
    size_t I = indexOf(Addr);
    while (true) {
      const Slot &S = Slots[I];
      if (S.Epoch != Epoch)
        return nullptr;
      if (S.Addr == Addr)
        return &S;
      if (++I == Slots.size())
        I = 0;
    }
  }

  void insertOrAssign(uint64_t Addr, Value V, int32_t Writer) {
    ensureCapacity();
    Slot &S = findSlot(Addr);
    S.V = V;
    S.Writer = Writer;
  }

  /// First write wins (undo log: the pre-fork value).
  void insertIfAbsent(uint64_t Addr, Value V) {
    ensureCapacity();
    const bool Existed = Live > 0 && find(Addr) != nullptr;
    if (Existed)
      return;
    Slot &S = findSlot(Addr);
    S.V = V;
    S.Writer = -1;
  }

private:
  static size_t mix(uint64_t X) {
    X ^= X >> 33;
    X *= 0xff51afd7ed558ccdull;
    X ^= X >> 33;
    return static_cast<size_t>(X);
  }
  size_t indexOf(uint64_t Addr) const {
    return mix(Addr) & (Slots.size() - 1);
  }

  Slot &findSlot(uint64_t Addr) {
    size_t I = indexOf(Addr);
    while (Slots[I].Epoch == Epoch && Slots[I].Addr != Addr)
      if (++I == Slots.size())
        I = 0;
    if (Slots[I].Epoch != Epoch) {
      ++Live;
      Slots[I].Epoch = Epoch;
      Slots[I].Addr = Addr;
    }
    return Slots[I];
  }

  void ensureCapacity() {
    if (Slots.empty()) {
      Slots.resize(64);
      return;
    }
    if (Live * 4 < Slots.size() * 3)
      return;
    std::vector<Slot> Old;
    Old.swap(Slots);
    Slots.resize(Old.size() * 2);
    Live = 0;
    for (const Slot &S : Old)
      if (S.Epoch == Epoch) {
        Slot &N = findSlot(S.Addr);
        N.V = S.V;
        N.Writer = S.Writer;
      }
  }

  std::vector<Slot> Slots;
  uint64_t Epoch = 1;
  size_t Live = 0;
};

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

/// Result of simulating one speculative thread.
struct GhostOutcome {
  bool Completed = false;
  /// Completed by speculating the loop's end (SPT_KILL). Generalized
  /// engine only: cuts the chain — no later iteration exists.
  bool CompletedByKill = false;
  bool Violated = false;
  uint64_t EndSubtick = 0;
  uint64_t Instrs = 0;
  uint64_t ReexecInstrs = 0;
  uint64_t ReexecSubticks = 0;
};

/// State captured when the main thread forks. Arena-reused across forks.
struct PendingSpec {
  int64_t LoopId = -1;
  const SptLoopDesc *Desc = nullptr;
  size_t FrameDepth = 0; ///< Main's stack depth at the fork.
  std::vector<Value> Regs;
  Random Rng;
  uint64_t ForkSubtick = 0;
  /// Registers the main thread wrote post-fork (loop-frame), as a bitset
  /// over the loop function's registers.
  std::vector<uint64_t> MainRegWriteBits;
  SpecAddrMap UndoLog;
  uint64_t MainRndCalls = 0;
  uint64_t MainIoCalls = 0;

  void resetFor(int64_t Id, const SptLoopDesc *D, size_t Depth) {
    LoopId = Id;
    Desc = D;
    FrameDepth = Depth;
    MainRegWriteBits.assign((D->F->numRegs() + 63) / 64, 0);
    UndoLog.reset();
    MainRndCalls = 0;
    MainIoCalls = 0;
  }
  bool mainWrote(Reg R) const {
    return (R >> 6) < MainRegWriteBits.size() &&
           (MainRegWriteBits[R >> 6] >> (R & 63)) & 1;
  }
  void setMainWrote(Reg R) {
    if ((R >> 6) >= MainRegWriteBits.size())
      MainRegWriteBits.resize((R >> 6) + 1, 0);
    MainRegWriteBits[R >> 6] |= 1ull << (R & 63);
  }
};

/// Undo-logging hook for the main core's post-fork leg.
class MainPostForkHooks final : public Interpreter::MemHooks {
public:
  MainPostForkHooks(Interpreter &In, PendingSpec &Spec)
      : In(In), Spec(Spec) {}

  Value onLoad(uint64_t, Value Fallback) override { return Fallback; }

  bool onStore(uint64_t Addr, Value) override {
    Spec.UndoLog.insertIfAbsent(Addr, In.peekAddr(Addr)); // First write wins.
    return false;                                         // Write through.
  }

private:
  Interpreter &In;
  PendingSpec &Spec;
};

/// Structure-of-arrays ghost trace and last-writer tables, arena-reused
/// across speculative threads (epoch/run-id tagged, O(1) begin).
struct GhostArena {
  // Per-trace-entry columns.
  std::vector<uint8_t> Direct;     ///< Directly violated.
  std::vector<uint8_t> IsLoad;
  std::vector<int32_t> SpecWriter; ///< Spec-buffer producer entry or -1.
  std::vector<uint32_t> SrcBegin;  ///< Offsets into SrcWriters (+sentinel).
  std::vector<int32_t> SrcWriters; ///< Resolved register producers.
  std::vector<uint8_t> Reexec;     ///< Closure output.
  // Last-writer tables: per frame, per register, (run id, trace index).
  std::vector<std::vector<std::pair<uint32_t, int32_t>>> Writers;
  uint32_t RunId = 0;
  /// Registers the ghost wrote in the loop frame (frame 0), as a bitset.
  std::vector<uint64_t> GhostWrote;

  void beginRun(unsigned LoopRegs) {
    ++RunId;
    Direct.clear();
    IsLoad.clear();
    SpecWriter.clear();
    SrcBegin.clear();
    SrcWriters.clear();
    GhostWrote.assign((LoopRegs + 63) / 64, 0);
  }
  int32_t writerOf(size_t Frame, Reg R) const {
    if (Frame >= Writers.size())
      return -1;
    const auto &W = Writers[Frame];
    if (R >= W.size() || W[R].first != RunId)
      return -1;
    return W[R].second;
  }
  void setWriter(size_t Frame, Reg R, int32_t Idx) {
    if (Frame >= Writers.size())
      Writers.resize(Frame + 1);
    auto &W = Writers[Frame];
    if (R >= W.size())
      W.resize(R + 1, {0, -1});
    W[R] = {RunId, Idx};
  }
  bool ghostWrote(Reg R) const {
    return (R >> 6) < GhostWrote.size() &&
           (GhostWrote[R >> 6] >> (R & 63)) & 1;
  }
  void setGhostWrote(Reg R) {
    if ((R >> 6) >= GhostWrote.size())
      GhostWrote.resize((R >> 6) + 1, 0);
    GhostWrote[R >> 6] |= 1ull << (R & 63);
  }
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
  Ghost.runBatch(Sink, MaxGhostSteps);

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

/// The original one-main-one-spec driver, retained verbatim as the
/// SptSimEngine::TwoCoreReference baseline the generalized engine must
/// match byte-for-byte at Cores=2. Ignores MachineConfig::Cores.
SptSimResult runSptTwoCore(const Module &M, const std::string &FnName,
                           const std::vector<Value> &Args,
                           const std::map<int64_t, SptLoopDesc> &Loops,
                           const MachineConfig &Machine, uint64_t MaxSteps,
                           uint64_t RngSeed, FaultInjector *Injector,
                           ObsContext *Obs) {
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
  In.runBatch(Sink, MaxSteps);
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

//===----------------------------------------------------------------------===//
// Generalized N-core engine
//===----------------------------------------------------------------------===//

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
  /// sequential state (the generalization of the reference engine's
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

  bool staleReg(Reg R) const {
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
/// slot 0 the predecessor walk is empty and this is exactly the
/// reference engine's GhostMemHooks.
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

/// Simulates chain slot \p SlotIdx as a ghost. Structured exactly like
/// the reference engine's runGhost, with three additions: staleness
/// comes from the slot (not the main-thread write set), loads walk the
/// predecessor buffers, and the slot's own fork marker arms \p Next.
GhostOutcome runChainGhost(const Module &M, Interpreter &MainIn,
                           const PendingSpec &Spec,
                           std::vector<ChainSlot> &Chain, uint32_t SlotIdx,
                           ChainSlot *Next, const MachineConfig &Machine,
                           CoreTiming &Core, GhostArena &A,
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

  uint32_t N = 0;
  auto Sink = makeStepSink([&](const StepResult &R) {
    const size_t Depth = Ghost.stackDepth();
    const size_t DepthBefore =
        R.IsCallEnter ? Depth - 1 : (R.IsReturn ? Depth + 1 : Depth);
    Core.onStep(R, Depth);
    const size_t SrcFrame = DepthBefore - 1;

    uint8_t Direct = 0;
    A.SrcBegin.push_back(static_cast<uint32_t>(A.SrcWriters.size()));
    for (Reg S : R.I->Srcs) {
      A.SrcWriters.push_back(A.writerOf(SrcFrame, S));
      // Violations: stale register reads at the loop frame.
      if (SrcFrame == 0 && !A.ghostWrote(S) && Slot.staleReg(S))
        Direct = 1;
    }

    if (R.IsLoad && (Hooks.LastLoadViolated || Hooks.LastLoadInjected))
      Direct = 1;

    if (R.I->Op == Opcode::Call) {
      const Function *Callee = M.function(R.I->calleeIndex());
      if (Callee->isExternal()) {
        if (Callee->name() == "rnd") {
          if (Slot.StaleRnd)
            Direct = 1;
          if (Slot.ArmIndex >= 0)
            ++Slot.RndCallsAfterArm;
        }
        if (Callee->name() == "print_int" || Callee->name() == "print_fp")
          Direct = 1; // I/O cannot speculate.
      }
    }

    A.Direct.push_back(Direct);
    A.IsLoad.push_back(R.IsLoad);
    A.SpecWriter.push_back(R.IsLoad ? Hooks.LastLoadSpecWriter : -1);

    if (R.I->Dst != NoReg && !R.IsCallEnter) {
      A.setWriter(SrcFrame, R.I->Dst, static_cast<int32_t>(N));
      if (SrcFrame == 0)
        A.setGhostWrote(R.I->Dst);
    }

    // Chain arming: this ghost's own fork marker spawns the next slot,
    // exactly as the main core's fork spawned this one.
    if (R.IsFork && R.I->IntImm == Spec.LoopId && SrcFrame == 0 && Next &&
        !Next->Armed) {
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
    ++N;

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
  });
  Ghost.runBatch(Sink, MaxGhostSteps);

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

/// The generalized SptSimEngine::Generalized driver: Cores-1 chained
/// speculative slots per fork, in-order commit with cross-core violation
/// closure, per-slot CoreTiming/BranchPredictor over the shared cache
/// hierarchy. Cores=1 disables speculation; Cores=2 is byte-identical to
/// runSptTwoCore.
SptSimResult runSptGeneralized(const Module &M, const std::string &FnName,
                               const std::vector<Value> &Args,
                               const std::map<int64_t, SptLoopDesc> &Loops,
                               const MachineConfig &Machine,
                               uint64_t MaxSteps, uint64_t RngSeed,
                               FaultInjector *Injector, ObsContext *Obs) {
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
        BE.Id = Id;
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
  std::vector<ChainSlot> Chain(K);
  std::unique_ptr<MainPostForkHooks> PostForkHooks;
  uint64_t ReplayInstrs = 0;
  uint64_t ReexecInstrsTotal = 0;
  uint32_t ReplayRemaining = 0;

  std::map<int64_t, uint64_t> LoopEnterSubtick;

  auto Sink = makeStepSink([&](const StepResult &R) {
    const size_t Depth = In.stackDepth();

    if (State != Mode::Replay)
      Core.onStep(R, Depth);
    else
      ++ReplayInstrs;

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
      if (K != 0 && R.IsFork && Loops.count(R.I->IntImm)) {
        const SptLoopDesc &Desc = Loops.at(R.I->IntImm);
        if (In.topFrame().F == Desc.F) {
          Core.charge(Machine.ForkOverhead);
          if (FI)
            Core.charge(FI->forkJitterSubticks());
          Spec.resetFor(R.I->IntImm, &Desc, Depth);
          In.copyTopRegs(Spec.Regs);
          if (FI && !Spec.Regs.empty() && FI->shouldFlipReg()) {
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
      }
      break;

    case Mode::PostFork: {
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

      if (R.IsKill && R.I->IntImm == Spec.LoopId) {
        ++Result.PerLoop[Spec.LoopId].KilledBeforeJoin;
        In.setMemHooks(nullptr);
        PostForkHooks.reset();
        State = Mode::Normal;
        break;
      }

      // Join: the main thread reached the next iteration's entry.
      // Simulate the speculative chain in order, each committed slot
      // arming (possibly) the next.
      if (R.IsBranch && Depth == Spec.FrameDepth &&
          R.NextBlock == Spec.Desc->PreForkEntry) {
        SptLoopRunStats &Stats = Result.PerLoop[Spec.LoopId];
        In.setMemHooks(nullptr);
        PostForkHooks.reset();

        // Slot 0 inherits the main fork's snapshot; later slots reset
        // until their predecessor arms them.
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
          Chain[S].Out = runChainGhost(M, In, Spec, Chain, S, Next,
                                       Machine, GhostCores[S], Arena,
                                       /*MaxGhostSteps=*/1u << 20, FI,
                                       Result.Perf);
          if (Next && Next->Armed) {
            ++Stats.Forks;
            ++Result.CoreStats[S + 1].Forks;
          }
          if (Chain[S].Out.Completed && FI && FI->shouldForceSquash())
            Chain[S].Out.Completed = false;
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
          State = Mode::Normal;
        } else {
          ReplayRemaining = Committed;
          State = Mode::Replay;
        }
      }
      break;
    }

    case Mode::Replay:
      // Speculatively executed iterations are replayed functionally with
      // the clock frozen, one boundary visit per committed slot.
      if (R.IsBranch && Depth == Spec.FrameDepth &&
          R.NextBlock == Spec.Desc->PreForkEntry) {
        if (--ReplayRemaining == 0)
          State = Mode::Normal;
      } else if (R.IsKill && R.I->IntImm == Spec.LoopId) {
        ReplayRemaining = 0;
        State = Mode::Normal;
      }
      break;
    }

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
  In.runBatch(Sink, MaxSteps);
  if (!In.done())
    spt_fatal("runSpt: step budget exhausted (infinite loop?)");

  Result.Subticks = Core.now();
  Result.Instrs = Core.retired() + ReplayInstrs + ReexecInstrsTotal;
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

} // namespace

SptSimResult spt::runSpt(const Module &M, const std::string &FnName,
                         const std::vector<Value> &Args,
                         const std::map<int64_t, SptLoopDesc> &Loops,
                         const MachineConfig &Machine, uint64_t MaxSteps,
                         uint64_t RngSeed, FaultInjector *Injector,
                         ObsContext *Obs, const SimOptions &Sim) {
  if (Sim.Engine == SptSimEngine::TwoCoreReference)
    return runSptTwoCore(M, FnName, Args, Loops, Machine, MaxSteps, RngSeed,
                         Injector, Obs);
  return runSptGeneralized(M, FnName, Args, Loops, Machine, MaxSteps,
                           RngSeed, Injector, Obs);
}

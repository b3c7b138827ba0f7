//===- sim/CoreTiming.h - In-order core timing model -------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A scoreboarded in-order core: instructions issue in program order at up
/// to IssueWidth per cycle, stalling until their source registers are
/// ready; results become ready after the operation latency (loads: the
/// shared cache hierarchy's access latency). Conditional branches consult
/// a per-site 2-bit predictor; mispredictions stall the front end by the
/// configured penalty. Calls and returns push/pop per-frame scoreboards
/// and charge a fixed overhead.
///
/// One CoreTiming instance models one core; the SPT simulator runs one
/// per core of the machine (the main core plus MachineConfig::Cores-1
/// speculative cores) against one shared CacheHierarchy.
///
/// onStep is inline: the simulators call it from step sinks the decoded
/// engine inlines into each opcode handler (interp/DecodeEngine.h), where
/// the record kind is a constant and the unused paths fold away. Its
/// state is flat: latencies come from a per-opcode table built once from
/// the MachineConfig, and every frame's register-ready times live in one
/// arena (see FrameRegs).
///
//===----------------------------------------------------------------------===//

#ifndef SPT_SIM_CORETIMING_H
#define SPT_SIM_CORETIMING_H

#include "interp/Interp.h"
#include "ir/IR.h"
#include "sim/Cache.h"
#include "sim/Machine.h"
#include "support/Compiler.h"

#include <algorithm>
#include <array>
#include <vector>

namespace spt {

/// Per-branch-site 2-bit saturating counters: one dense table per
/// function, indexed by module function index, then by statement id
/// (ids are dense per function).
class BranchPredictor {
public:
  /// Returns true when the prediction matched \p Taken, and trains.
  /// \p FnIndex is the branch's Function::index().
  SPT_ALWAYS_INLINE bool predictAndTrain(uint32_t FnIndex, StmtId Site,
                                         bool Taken) {
    ++Lookups;
    if (FnIndex >= Tables.size() || Site >= Tables[FnIndex].size())
      grow(FnIndex, Site);
    uint8_t &Counter = Tables[FnIndex][Site]; // Starts weakly not-taken (0).
    const bool Predicted = Counter >= 2;
    if (Taken && Counter < 3)
      ++Counter;
    else if (!Taken && Counter > 0)
      --Counter;
    const bool Correct = Predicted == Taken;
    if (!Correct)
      ++Mispredicts;
    return Correct;
  }

  uint64_t lookups() const { return Lookups; }
  uint64_t mispredicts() const { return Mispredicts; }

private:
  /// Makes room for counter (\p FnIndex, \p Site); new counters are 0.
  SPT_NOINLINE void grow(uint32_t FnIndex, StmtId Site) {
    if (FnIndex >= Tables.size())
      Tables.resize(static_cast<size_t>(FnIndex) + 1);
    std::vector<uint8_t> &Tab = Tables[FnIndex];
    if (Site >= Tab.size())
      Tab.resize(std::max<size_t>(static_cast<size_t>(Site) + 1,
                                  2 * Tab.size()),
                 0);
  }

  std::vector<std::vector<uint8_t>> Tables;
  uint64_t Lookups = 0;
  uint64_t Mispredicts = 0;
};

/// The scoreboarded core. Time advances in subticks (see Machine.h).
///
/// Timing model: an "ideally scheduled" EPIC core. Instructions consume
/// issue bandwidth (IssueWidth per cycle, the slot clock) and stall only
/// on true data dependences (per-register ready times); the visible clock
/// is the maximum completion time seen, so dependence chains accumulate
/// their full latencies while independent work overlaps — matching how a
/// static (Itanium-style) schedule hides non-critical latency. Branch
/// mispredictions stall the front end (slot clock) past the branch's
/// resolution by the configured penalty.
class CoreTiming {
public:
  CoreTiming(const MachineConfig &Machine, CacheHierarchy &Cache,
             BranchPredictor &Predictor);

  /// Accounts one executed instruction; \p Depth is the interpreter's
  /// stack depth after the step (frames are tracked from call/return
  /// flags).
  SPT_ALWAYS_INLINE void onStep(const StepResult &R, size_t Depth) {
    ++Retired;
    const Instr *I = R.I;

    // Operation latency; memory operations access the shared cache
    // hierarchy, a call that enters a frame pays the call overhead and an
    // external call (a math builtin) the table's Call entry.
    uint64_t Lat;
    if (R.IsLoad) {
      Lat = Cache.access(R.Addr) * SubticksPerCycle;
    } else if (R.IsStore) {
      Cache.access(R.Addr);
      Lat = LatSubticks[static_cast<size_t>(Opcode::Store)];
    } else if (R.IsCallEnter) {
      Lat = CallSubticks;
    } else {
      Lat = LatSubticks[static_cast<size_t>(I->Op)];
    }

    // The frame the instruction executed in: for returns, the popped
    // frame was Depth (after-pop depth + 1); otherwise the current top.
    const size_t ExecFrame =
        R.IsReturn ? Depth : (Depth == 0 ? 0 : Depth - 1);
    // For call-enters the instruction itself ran in the caller frame.
    const size_t SrcFrame =
        R.IsCallEnter && ExecFrame > 0 ? ExecFrame - 1 : ExecFrame;

    // Issue when a slot is free, the operands are ready, and the
    // in-flight window has room (the oldest in-flight completed).
    uint64_t IssueAt = std::max(SlotTime, InFlight[InFlightIdx]);
    if (SrcFrame < Frames.size()) {
      const FrameRegs Fr = Frames[SrcFrame];
      const uint64_t *Slots = Ready.data() + Fr.Base;
      for (Reg S : I->Srcs)
        if (S < Fr.Mark)
          IssueAt = std::max(IssueAt, Slots[S]);
    }
    // A dependence-stalled instruction occupies no extra front-end
    // bandwidth: the static schedule places independent work in between.
    // Stalls are bounded by operand readiness and the in-flight window.
    SlotTime += IssueSlotSubticks;

    const uint64_t Done = IssueAt + IssueSlotSubticks + Lat;
    Now = std::max(Now, Done);
    InFlight[InFlightIdx] = Done;
    if (++InFlightIdx == InFlight.size())
      InFlightIdx = 0;

    // Results.
    if (I->Dst != NoReg && !R.IsCallEnter)
      setRegReady(SrcFrame, I->Dst, Done);

    // Conditional branches train the predictor and pay the misprediction
    // penalty on the front end.
    if (R.IsBranch && I->Op == Opcode::Br &&
        !Predictor.predictAndTrain(R.F->index(), I->Id, R.BranchTaken)) {
      SlotTime = std::max(SlotTime, Done + MispredictSubticks);
      Now = std::max(Now, SlotTime);
    }

    // Frame bookkeeping.
    if (R.IsCallEnter) {
      if (Frames.size() < Depth)
        addFrames(Depth);
      Frames[Depth - 1].Mark = 0;
      // Arguments become ready after the call overhead; the front end
      // redirects into the callee at the same time.
      const uint64_t ArgsReady = IssueAt + IssueSlotSubticks + CallSubticks;
      for (size_t A = 0; A != I->Srcs.size(); ++A)
        setRegReady(Depth - 1, static_cast<Reg>(A), ArgsReady);
      SlotTime = std::max(SlotTime, ArgsReady);
      Now = std::max(Now, SlotTime);
    } else if (R.IsReturn) {
      if (Frames.size() > Depth)
        Frames.resize(Depth);
      // Return redirect; the caller's destination register readiness is
      // approximated by the clock itself.
      SlotTime += ReturnSubticks;
      Now = std::max(Now, SlotTime);
    }
  }

  /// Current core clock in subticks.
  uint64_t now() const { return Now; }
  /// Sets the clock (thread starts); register scoreboards are flushed to
  /// be ready at the new time.
  void setNow(uint64_t Subticks);
  /// Resets the core to a fresh thread start at \p Subticks: drops all
  /// frame scoreboards (unknown registers read as ready-at-0, exactly as
  /// a newly constructed core) and fills the in-flight window. Lets the
  /// SPT simulator reuse one ghost core arena per speculative thread
  /// with the same timing a per-thread construction had.
  void resetFor(uint64_t Subticks);
  /// Moves the clock forward to at least \p Subticks without disturbing
  /// register readiness or the in-flight window (used at joins: the core
  /// keeps its pipeline state while waiting).
  void advanceTo(uint64_t Subticks);

  /// Charges a fixed number of cycles (fork/commit/re-execution).
  void charge(uint64_t Cycles) {
    SlotTime = Now + Cycles * SubticksPerCycle;
    Now = SlotTime;
  }

  uint64_t retired() const { return Retired; }
  double cyclesNow() const {
    return static_cast<double>(Now) / SubticksPerCycle;
  }

private:
  /// One frame's scoreboard: register R's ready time is Ready[Base + R]
  /// for R < Mark. Mark is a high-water mark: a register at or past it
  /// reads as ready at 0 (never written since the frame was entered), and
  /// raising it zero-fills the registers it passes. Frames sit in the
  /// arena in stack order, so frame K may grow up to the next frame's
  /// Base and the top frame up to the arena's end.
  struct FrameRegs {
    uint32_t Base = 0;
    uint32_t Mark = 0;
  };

  SPT_ALWAYS_INLINE void setRegReady(size_t Frame, Reg R, uint64_t T) {
    if (Frame >= Frames.size())
      addFrames(Frame + 1);
    FrameRegs &Fr = Frames[Frame];
    if (R >= Fr.Mark) {
      if (Frame + 1 == Frames.size() &&
          static_cast<size_t>(Fr.Base) + R < Ready.size()) {
        uint64_t *Slots = Ready.data() + Fr.Base;
        for (Reg X = Fr.Mark; X != R; ++X)
          Slots[X] = 0;
        Fr.Mark = R + 1;
      } else {
        growFrame(Frame, R);
      }
    }
    Ready[Fr.Base + R] = T;
  }

  /// Adds empty frames until there are \p Count, on top of the arena.
  SPT_NOINLINE void addFrames(size_t Count);
  /// Raises frame \p Frame's mark past \p R, making room in the arena
  /// (moving the frames above it up when it is not the top frame).
  SPT_NOINLINE void growFrame(size_t Frame, Reg R);

  CacheHierarchy &Cache;
  BranchPredictor &Predictor;
  uint64_t IssueSlotSubticks;
  /// Per-opcode latency in subticks (Call: an external builtin's; Load:
  /// unused, loads take the cache hierarchy's latency).
  std::array<uint64_t, NumOpcodes> LatSubticks{};
  uint64_t CallSubticks;       ///< Entering a call frame.
  uint64_t ReturnSubticks;     ///< Front-end redirect on return.
  uint64_t MispredictSubticks; ///< Branch misprediction penalty.

  uint64_t Now = 0;      ///< Visible clock: max completion time.
  uint64_t SlotTime = 0; ///< Issue-bandwidth clock.
  uint64_t Retired = 0;
  /// Completion times of the in-flight window (ring buffer).
  std::vector<uint64_t> InFlight;
  size_t InFlightIdx = 0;
  /// Live frames' scoreboards, outermost first, and their register-ready
  /// times in subticks.
  std::vector<FrameRegs> Frames;
  std::vector<uint64_t> Ready;
};

} // namespace spt

#endif // SPT_SIM_CORETIMING_H

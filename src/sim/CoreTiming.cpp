//===- sim/CoreTiming.cpp - In-order core timing model ------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/CoreTiming.h"

#include <algorithm>

using namespace spt;

namespace {

/// Latency in cycles of an instruction of \p Op that does not enter a
/// call frame.
uint64_t latencyCycles(const MachineConfig &Machine, Opcode Op) {
  switch (opcodeClass(Op)) {
  case OpClass::IntAlu:
    return Machine.LatIntAlu;
  case OpClass::IntMul:
    return Machine.LatIntMul;
  case OpClass::IntDiv:
    return Machine.LatIntDiv;
  case OpClass::FpAlu:
    return Machine.LatFpAlu;
  case OpClass::FpMul:
    return Machine.LatFpMul;
  case OpClass::FpDiv:
    return Machine.LatFpDiv;
  case OpClass::MemLoad:
    return 0; // The cache hierarchy's latency, per access.
  case OpClass::MemStore:
    return Machine.LatStore;
  case OpClass::Branch:
    return Machine.LatBranch;
  case OpClass::Call:
    // A call that does not enter a frame runs an external builtin; those
    // are heavyweight.
    return Machine.MathBuiltinLatency;
  case OpClass::Marker:
    return 0;
  }
  return Machine.LatIntAlu;
}

} // namespace

CoreTiming::CoreTiming(const MachineConfig &Machine, CacheHierarchy &Cache,
                       BranchPredictor &Predictor)
    : Cache(Cache), Predictor(Predictor),
      IssueSlotSubticks(SubticksPerCycle / Machine.IssueWidth),
      CallSubticks(Machine.CallOverhead * SubticksPerCycle),
      ReturnSubticks(Machine.CallOverhead * SubticksPerCycle / 2),
      MispredictSubticks(Machine.BranchMispredictPenalty * SubticksPerCycle) {
  for (size_t Op = 0; Op != NumOpcodes; ++Op)
    LatSubticks[Op] =
        latencyCycles(Machine, static_cast<Opcode>(Op)) * SubticksPerCycle;
  InFlight.assign(Machine.SchedulingWindow == 0 ? 1
                                                : Machine.SchedulingWindow,
                  0);
  Ready.resize(256);
}

void CoreTiming::addFrames(size_t Count) {
  // New frames start empty just past the current top frame's registers.
  uint32_t Base = 0;
  if (!Frames.empty())
    Base = Frames.back().Base + Frames.back().Mark;
  Frames.resize(Count, FrameRegs{Base, 0});
}

void CoreTiming::growFrame(size_t Frame, Reg R) {
  const size_t Need = static_cast<size_t>(Frames[Frame].Base) + R + 1;
  if (Frame + 1 < Frames.size() && Need > Frames[Frame + 1].Base) {
    // Move every frame above this one up by the shortfall.
    const size_t Shift = Need - Frames[Frame + 1].Base;
    const size_t From = Frames[Frame + 1].Base;
    const size_t End = static_cast<size_t>(Frames.back().Base) +
                       Frames.back().Mark;
    if (Ready.size() < End + Shift)
      Ready.resize(std::max(End + Shift, 2 * Ready.size()));
    std::copy_backward(Ready.begin() + From, Ready.begin() + End,
                       Ready.begin() + End + Shift);
    for (size_t K = Frame + 1; K != Frames.size(); ++K)
      Frames[K].Base += static_cast<uint32_t>(Shift);
  } else if (Ready.size() < Need) {
    Ready.resize(std::max(Need, 2 * Ready.size()));
  }
  FrameRegs &Fr = Frames[Frame];
  std::fill(Ready.begin() + Fr.Base + Fr.Mark, Ready.begin() + Fr.Base + R,
            0);
  Fr.Mark = R + 1;
}

void CoreTiming::setNow(uint64_t Subticks) {
  Now = Subticks;
  SlotTime = Subticks;
  for (const FrameRegs &Fr : Frames)
    std::fill(Ready.begin() + Fr.Base, Ready.begin() + Fr.Base + Fr.Mark,
              Subticks);
  std::fill(InFlight.begin(), InFlight.end(), Subticks);
  InFlightIdx = 0;
}

void CoreTiming::resetFor(uint64_t Subticks) {
  Now = Subticks;
  SlotTime = Subticks;
  Retired = 0;
  Frames.clear();
  std::fill(InFlight.begin(), InFlight.end(), Subticks);
  InFlightIdx = 0;
}

void CoreTiming::advanceTo(uint64_t Subticks) {
  Now = std::max(Now, Subticks);
  SlotTime = std::max(SlotTime, Subticks);
}

//===- sim/CoreTiming.cpp - In-order core timing model ------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/CoreTiming.h"

#include <algorithm>

using namespace spt;

CoreTiming::CoreTiming(const MachineConfig &Machine, CacheHierarchy &Cache,
                       BranchPredictor &Predictor)
    : Machine(Machine), Cache(Cache), Predictor(Predictor),
      IssueSlotSubticks(SubticksPerCycle / Machine.IssueWidth) {
  InFlight.assign(Machine.SchedulingWindow == 0 ? 1
                                                : Machine.SchedulingWindow,
                  0);
}

void CoreTiming::setNow(uint64_t Subticks) {
  Now = Subticks;
  SlotTime = Subticks;
  for (auto &Frame : Frames)
    std::fill(Frame.begin(), Frame.end(), Subticks);
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

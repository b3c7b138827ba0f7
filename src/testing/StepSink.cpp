//===- testing/StepSink.cpp - Virtual step sinks for test drivers ----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "testing/StepSink.h"

#include "interp/DecodeEngine.h"

using namespace spt;

StepSink::~StepSink() = default;

namespace {

/// The concrete sink the engine is instantiated for: one virtual call per
/// record.
struct VirtualSink {
  StepSink &S;
  bool onStep(const StepResult &R) { return S.onStep(R); }
};

} // namespace

uint64_t spt::runBatch(Interpreter &In, StepSink &Sink, uint64_t MaxSteps) {
  VirtualSink S{Sink};
  return In.runWith(S, MaxSteps);
}

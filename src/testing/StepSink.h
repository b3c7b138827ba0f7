//===- testing/StepSink.h - Virtual step sinks for test drivers ------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A virtual sink for the interpreter's record stream, for drivers whose
/// per-step handling is a class hierarchy or a local lambda rather than a
/// concrete sink: the reference profiler, the two-core reference SPT
/// engine, the interpreter tests, the interp-decode-diff oracle and
/// bench/perf_interp. runBatch() instantiates the decoded engine once for
/// the virtual call; the shipped executors instead call
/// Interpreter::runWith with their own concrete sink, which the engine
/// inlines. The shipped library does not link this.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_TESTING_STEPSINK_H
#define SPT_TESTING_STEPSINK_H

#include "interp/Interp.h"

#include <cstdint>
#include <utility>

namespace spt {

/// Synchronous consumer of StepResult records for runBatch. onStep is
/// invoked after each IR instruction retires, at the exact point
/// referenceStep (testing/ReferenceInterp.h) would have returned, so a
/// sink may inspect interpreter state (stackDepth, topFrame, memory) and
/// sees what a reference driver saw. Returning false stops the run after
/// the current record.
class StepSink {
public:
  virtual ~StepSink();
  virtual bool onStep(const StepResult &R) = 0;
};

/// Adapts a callable to a StepSink, for drivers whose per-step handling is
/// a local lambda over driver state.
template <class Fn> class LambdaSink final : public StepSink {
public:
  explicit LambdaSink(Fn F) : F(std::move(F)) {}
  bool onStep(const StepResult &R) override { return F(R); }

private:
  Fn F;
};

template <class Fn> LambdaSink<Fn> makeStepSink(Fn F) {
  return LambdaSink<Fn>(std::move(F));
}

/// Interpreter::runWith through a virtual sink: delivers every StepResult
/// to \p Sink, exactly the records a referenceStep loop would have
/// produced, in the same order. Stops when the sink returns false, \p In
/// is done(), or \p MaxSteps; returns the number of instructions executed.
uint64_t runBatch(Interpreter &In, StepSink &Sink, uint64_t MaxSteps = ~0ull);

} // namespace spt

#endif // SPT_TESTING_STEPSINK_H

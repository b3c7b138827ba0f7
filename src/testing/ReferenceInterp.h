//===- testing/ReferenceInterp.h - Single-instruction reference stepper ---===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter's reference semantics, kept only as a test oracle for
/// the decoded engine behind Interpreter::run and runWith
/// (interp/DecodeEngine.h). referenceStep executes exactly one instruction
/// with a tree-walking switch over ir::Instr and returns its full record.
/// It works on the interpreter's own machine state, so it may be
/// interleaved freely with the engine: a reference driver can resume a
/// machine that a bounded or sink-stopped run left behind, and the other
/// way round. tests/interp_decode_test.cpp, the interp-decode-diff fuzz
/// oracle and bench/perf_interp compare the engine's record stream, output
/// and memory image against a loop of it. The shipped library does not
/// link it.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_TESTING_REFERENCEINTERP_H
#define SPT_TESTING_REFERENCEINTERP_H

#include "interp/Interp.h"

#include <cstdint>

namespace spt {

/// Executes exactly one instruction of \p In and returns its record. Must
/// not be called when In.done().
StepResult referenceStep(Interpreter &In);

/// Folds every observable field of \p R into an FNV-1a accumulator, so
/// differential tests can compare whole StepResult streams without
/// memcmp'ing padding bytes.
uint64_t hashStepResult(uint64_t H, const StepResult &R);

} // namespace spt

#endif // SPT_TESTING_REFERENCEINTERP_H

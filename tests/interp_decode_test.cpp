//===- tests/interp_decode_test.cpp - Decoded-engine differential ------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Lockstep differential between the interpreter's decoded engine (threaded
// dispatch, superinstruction fusion) and referenceStep, the tree-walking
// switch kept as its reference (testing/ReferenceInterp.h).
// The decoded engine's contract is total observational identity: the same
// StepResult record stream, the same output, return value and memory image,
// under every entry mode the drivers use — startCall, mid-function startAt
// (including a resume aimed at the second half of a fused pair), ghost
// contexts with MemHooks redirection, and truncating MaxSteps budgets. An
// interpreter started after an in-place rewrite of the module executes the
// rewritten body.
// The engine's concrete-sink entry point (Interpreter::runWith) must in turn
// deliver exactly the record stream runBatch (testing/StepSink.h) hands a
// virtual StepSink.
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "analysis/LoopInfo.h"
#include "interp/Decode.h"
#include "interp/DecodeEngine.h"
#include "interp/Interp.h"
#include "lang/Frontend.h"
#include "lang/ProgramGenerator.h"
#include "testing/ReferenceInterp.h"
#include "testing/StepSink.h"
#include "transform/Unroll.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace spt;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Everything one engine run observed: the per-step chained record hashes
/// (index i = hash of records 0..i), plus the architectural tail state.
struct Trace {
  std::vector<uint64_t> Chain;
  bool Done = false;
  Value Ret;
  std::string Output;
  uint64_t MemHash = 0;
  uint64_t Steps = 0;
};

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

Trace referenceTrace(Interpreter &In, uint64_t MaxSteps) {
  Trace T;
  uint64_t H = kFnvBasis;
  while (!In.done() && T.Steps < MaxSteps) {
    H = hashStepResult(H, referenceStep(In));
    T.Chain.push_back(H);
    ++T.Steps;
  }
  T.Done = In.done();
  T.Ret = In.returnValue();
  T.Output = In.output();
  T.MemHash = In.memoryHash();
  return T;
}

/// The decoded engine through a virtual sink (runBatch) that stops after
/// \p StopAfter records.
Trace decodedTrace(Interpreter &In, uint64_t MaxSteps,
                   uint64_t StopAfter = ~0ull) {
  Trace T;
  uint64_t H = kFnvBasis;
  auto Sink = makeStepSink([&](const StepResult &R) {
    H = hashStepResult(H, R);
    T.Chain.push_back(H);
    return ++T.Steps < StopAfter;
  });
  runBatch(In, Sink, MaxSteps);
  T.Done = In.done();
  T.Ret = In.returnValue();
  T.Output = In.output();
  T.MemHash = In.memoryHash();
  return T;
}

/// A concrete sink for Interpreter::runWith: chains record hashes exactly
/// as decodedTrace's virtual sink does, and stops after StopAfter records.
struct HashingSink {
  Trace &T;
  uint64_t H = kFnvBasis;
  uint64_t StopAfter = ~0ull;

  SPT_ALWAYS_INLINE bool onStep(const StepResult &R) {
    H = hashStepResult(H, R);
    T.Chain.push_back(H);
    return ++T.Steps < StopAfter;
  }
};

Trace concreteTrace(Interpreter &In, uint64_t MaxSteps,
                    uint64_t StopAfter = ~0ull) {
  Trace T;
  HashingSink Sink{T};
  Sink.StopAfter = StopAfter;
  In.runWith(Sink, MaxSteps);
  T.Done = In.done();
  T.Ret = In.returnValue();
  T.Output = In.output();
  T.MemHash = In.memoryHash();
  return T;
}

/// Compares two traces record-for-record and reports the first diverging
/// dynamic index, which pins the culprit instruction immediately.
void expectTracesEqual(const Trace &Ref, const Trace &Dec,
                       const std::string &What) {
  size_t Common = std::min(Ref.Chain.size(), Dec.Chain.size());
  for (size_t I = 0; I != Common; ++I)
    ASSERT_EQ(Ref.Chain[I], Dec.Chain[I])
        << What << ": record streams diverge at dynamic index " << I;
  EXPECT_EQ(Ref.Steps, Dec.Steps) << What << ": step counts differ";
  EXPECT_EQ(Ref.Done, Dec.Done) << What << ": termination differs";
  EXPECT_EQ(Ref.Output, Dec.Output) << What << ": output differs";
  EXPECT_EQ(Ref.MemHash, Dec.MemHash) << What << ": memory image differs";
  if (Ref.Done && Dec.Done) {
    EXPECT_EQ(Ref.Ret.I, Dec.Ret.I) << What << ": return value differs";
  }
}

/// Full differential on \p M's main(): a reference loop vs the decoded
/// engine on fresh interpreters, same seed, same budget. Returns the
/// reference's trace.
Trace runDifferential(const Module &M, const std::string &What,
                      uint64_t MaxSteps = 4000000ull) {
  const Function *F = M.findFunction("main");
  EXPECT_NE(F, nullptr) << What;
  if (!F)
    return Trace();

  InterpOptions IO;
  Interpreter Ref(M, IO);
  Ref.startCall(F, {});
  Trace RT = referenceTrace(Ref, MaxSteps);

  Interpreter Dec(M, IO);
  Dec.startCall(F, {});
  Trace DT = decodedTrace(Dec, MaxSteps);

  expectTracesEqual(RT, DT, What);
  return RT;
}

/// Ghost-context hooks: buffer every store, serve buffered values on load.
/// Records an event log so the differential can additionally require that
/// both engines drove the hooks with identical addresses and values.
struct BufferingHooks final : Interpreter::MemHooks {
  std::map<uint64_t, Value> Buffer;
  std::vector<uint64_t> Log;

  Value onLoad(uint64_t Addr, Value Fallback) override {
    Log.push_back(Addr * 2);
    auto It = Buffer.find(Addr);
    return It == Buffer.end() ? Fallback : It->second;
  }
  bool onStore(uint64_t Addr, Value V) override {
    Log.push_back(Addr * 2 + 1);
    Log.push_back(static_cast<uint64_t>(V.I));
    Buffer[Addr] = V;
    return true; // Consumed: main memory stays untouched.
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Seed corpus and generated programs.
//===----------------------------------------------------------------------===//

TEST(InterpDecodeDiffTest, SeedCorpusLockstep) {
  const std::string Dir = std::string(SPT_SOURCE_DIR) + "/tests/corpus";
  unsigned N = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".sptc")
      continue;
    auto M = compileOrDie(readFile(Entry.path().string()));
    runDifferential(*M, Entry.path().filename().string());
    ++N;
  }
  EXPECT_GE(N, 5u) << "seed corpus went missing";
}

TEST(InterpDecodeDiffTest, GeneratedProgramsLockstep) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    auto M = compileOrDie(generateProgram(Seed));
    runDifferential(*M, "generated seed " + std::to_string(Seed));
  }
}

TEST(InterpDecodeDiffTest, TruncatingBudgetsAgreeAtEveryBoundary) {
  // MaxSteps cuts the run mid-block, possibly between the two halves of a
  // fused pair; both engines must stay identical at *every* budget,
  // including the frame position left behind.
  auto M = compileOrDie("int a[8];\n"
                        "int main() { int i; int s;\n"
                        "  for (i = 0; i < 8; i = i + 1) { a[i] = i * 3; "
                        "s = s + a[i]; }\n"
                        "  return s; }\n");
  const Function *F = M->findFunction("main");
  ASSERT_NE(F, nullptr);
  for (uint64_t Budget = 1; Budget <= 40; ++Budget) {
    InterpOptions IO;
    Interpreter Ref(*M, IO);
    Ref.startCall(F, {});
    Trace RT = referenceTrace(Ref, Budget);

    Interpreter Dec(*M, IO);
    Dec.startCall(F, {});
    Trace DT = decodedTrace(Dec, Budget);

    const std::string What = "budget " + std::to_string(Budget);
    expectTracesEqual(RT, DT, What);
    ASSERT_EQ(Ref.done(), Dec.done()) << What;
    if (!Ref.done()) {
      // The decoded engine syncs the frame position on every exit; a
      // reference driver may resume either machine from here.
      EXPECT_EQ(Ref.topFrame().Block, Dec.topFrame().Block) << What;
      EXPECT_EQ(Ref.topFrame().Index, Dec.topFrame().Index) << What;
    }
  }
}

TEST(InterpDecodeDiffTest, SinkStopEveryRecordIncludingMidFusedPair) {
  // A sink returning false must stop the run after the current record —
  // even when that record is the first half of a fused pair. The machine
  // must then hold exactly as many retired instructions as a reference
  // driver that stopped there, positioned so a reference resume replays
  // the rest of the program identically.
  auto M = compileOrDie("int a[8];\n"
                        "int main() { int i; int s;\n"
                        "  for (i = 0; i < 6; i = i + 1) { a[i % 8] = s + i; "
                        "s = s + a[i % 8] * 2; }\n"
                        "  return s; }\n");
  const Function *F = M->findFunction("main");
  ASSERT_NE(F, nullptr);
  ASSERT_GT(decodeFunction(*M, *F, arrayBaseLayout(*M)).NumFused, 0u);

  // Total record count from a clean reference run.
  InterpOptions IO;
  Interpreter Probe(*M, IO);
  Probe.startCall(F, {});
  const uint64_t Total = referenceTrace(Probe, 100000).Steps;
  ASSERT_GT(Total, 10u);

  for (uint64_t Stop = 1; Stop < Total; ++Stop) {
    const std::string What = "stop after record " + std::to_string(Stop);

    Interpreter Ref(*M, IO);
    Ref.startCall(F, {});
    uint64_t RH = kFnvBasis;
    for (uint64_t I = 0; I != Stop; ++I)
      RH = hashStepResult(RH, referenceStep(Ref));

    Interpreter Dec(*M, IO);
    Dec.startCall(F, {});
    uint64_t DH = kFnvBasis, Seen = 0;
    auto Sink = makeStepSink([&](const StepResult &R) {
      DH = hashStepResult(DH, R);
      return ++Seen < Stop;
    });
    runBatch(Dec, Sink, 100000);

    ASSERT_EQ(Seen, Stop) << What << ": extra records after the stop";
    ASSERT_EQ(DH, RH) << What;
    ASSERT_EQ(Dec.instrCount(), Ref.instrCount()) << What;
    ASSERT_EQ(Dec.topFrame().Block, Ref.topFrame().Block) << What;
    ASSERT_EQ(Dec.topFrame().Index, Ref.topFrame().Index) << What;

    // Resume both through the reference; the tails must agree too.
    uint64_t RT = kFnvBasis, DT = kFnvBasis;
    while (!Ref.done())
      RT = hashStepResult(RT, referenceStep(Ref));
    while (!Dec.done())
      DT = hashStepResult(DT, referenceStep(Dec));
    ASSERT_EQ(DT, RT) << What << ": resumed tails diverge";
    EXPECT_EQ(Dec.returnValue().I, Ref.returnValue().I) << What;
    EXPECT_EQ(Dec.memoryHash(), Ref.memoryHash()) << What;
  }
}

TEST(InterpDecodeDiffTest, RecordFreeRunAgreesAtEveryBudget) {
  // Interpreter::run() builds no records, so a budget is its only stop. At
  // every budget it must leave the machine exactly where a reference
  // driver that retired as many instructions would be, including between
  // the two halves of a fused pair and inside a callee's frame.
  auto M = compileOrDie("int a[8];\n"
                        "int g(int x) { return x * 3 + 1; }\n"
                        "int main() { int i; int s;\n"
                        "  for (i = 0; i < 6; i = i + 1) { a[i % 8] = g(s) + i; "
                        "s = s + a[i % 8] * 2; }\n"
                        "  return s; }\n");
  const Function *F = M->findFunction("main");
  ASSERT_NE(F, nullptr);
  ASSERT_GT(decodeFunction(*M, *F, arrayBaseLayout(*M)).NumFused, 0u);

  InterpOptions IO;
  Interpreter Probe(*M, IO);
  Probe.startCall(F, {});
  const uint64_t Total = referenceTrace(Probe, 100000).Steps;
  ASSERT_GT(Total, 10u);

  unsigned MidPairStops = 0;
  for (uint64_t Budget = 1; Budget <= Total + 1; ++Budget) {
    const std::string What = "budget " + std::to_string(Budget);
    Interpreter Dec(*M, IO);
    Dec.startCall(F, {});
    const uint64_t Steps = Dec.run(Budget);
    ASSERT_EQ(Steps, std::min(Budget, Total)) << What;

    Interpreter Ref(*M, IO);
    Ref.startCall(F, {});
    for (uint64_t I = 0; I != Steps; ++I)
      referenceStep(Ref);

    ASSERT_EQ(Dec.done(), Ref.done()) << What;
    ASSERT_EQ(Dec.instrCount(), Ref.instrCount()) << What;
    ASSERT_EQ(Dec.stackDepth(), Ref.stackDepth()) << What;
    EXPECT_EQ(Dec.returnValue().I, Ref.returnValue().I) << What;
    EXPECT_EQ(Dec.memoryHash(), Ref.memoryHash()) << What;
    if (!Ref.done()) {
      const Frame &Fr = Dec.topFrame();
      ASSERT_EQ(Fr.Block, Ref.topFrame().Block) << What;
      ASSERT_EQ(Fr.Index, Ref.topFrame().Index) << What;
      const DecodedFunction Img =
          decodeFunction(*M, *Fr.F, arrayBaseLayout(*M));
      if (Fr.Index > 0 && Img.Code[Img.offsetOf(Fr.Block, Fr.Index - 1)].I1)
        ++MidPairStops;
    }

    // Both machines resume identically through the reference.
    uint64_t RT = kFnvBasis, DT = kFnvBasis;
    while (!Ref.done())
      RT = hashStepResult(RT, referenceStep(Ref));
    while (!Dec.done())
      DT = hashStepResult(DT, referenceStep(Dec));
    ASSERT_EQ(DT, RT) << What << ": resumed tails diverge";
    EXPECT_EQ(Dec.returnValue().I, Ref.returnValue().I) << What;
    EXPECT_EQ(Dec.memoryHash(), Ref.memoryHash()) << What;
  }
  EXPECT_GT(MidPairStops, 0u) << "no budget ended inside a fused pair";
}

//===----------------------------------------------------------------------===//
// Concrete sinks (Interpreter::runWith).
//===----------------------------------------------------------------------===//

namespace {

/// runBatch with a virtual sink vs runWith with a concrete one, fresh
/// interpreters over \p M's main().
void runConcreteDifferential(const Module &M, const std::string &What,
                             uint64_t MaxSteps = 4000000ull) {
  const Function *F = M.findFunction("main");
  ASSERT_NE(F, nullptr) << What;

  InterpOptions IO;
  Interpreter Virt(M, IO);
  Virt.startCall(F, {});
  Trace VT = decodedTrace(Virt, MaxSteps);

  Interpreter Conc(M, IO);
  Conc.startCall(F, {});
  Trace CT = concreteTrace(Conc, MaxSteps);
  expectTracesEqual(VT, CT, What);
}

} // namespace

TEST(InterpRunWithTest, ConcreteSinkMatchesRunBatchOnCorpusAndGenerated) {
  const std::string Dir = std::string(SPT_SOURCE_DIR) + "/tests/corpus";
  unsigned N = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".sptc")
      continue;
    auto M = compileOrDie(readFile(Entry.path().string()));
    runConcreteDifferential(*M, Entry.path().filename().string());
    ++N;
  }
  EXPECT_GE(N, 5u) << "seed corpus went missing";
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    auto M = compileOrDie(generateProgram(Seed));
    runConcreteDifferential(*M, "generated seed " + std::to_string(Seed));
  }
}

TEST(InterpRunWithTest, ConcreteSinkMatchesRunBatchAtEveryBudget) {
  auto M = compileOrDie("int a[8];\n"
                        "int main() { int i; int s;\n"
                        "  for (i = 0; i < 8; i = i + 1) { a[i] = i * 3; "
                        "s = s + a[i]; }\n"
                        "  return s; }\n");
  const Function *F = M->findFunction("main");
  ASSERT_NE(F, nullptr);
  InterpOptions IO;
  Interpreter Probe(*M, IO);
  Probe.startCall(F, {});
  const uint64_t Total = decodedTrace(Probe, ~0ull).Steps;
  ASSERT_GT(Total, 10u);

  // Every budget up to one past the whole run, so a cut lands once after
  // every op, the first halves of fused pairs included.
  for (uint64_t Budget = 1; Budget <= Total + 1; ++Budget) {
    const std::string What = "budget " + std::to_string(Budget);
    Interpreter Virt(*M, IO);
    Virt.startCall(F, {});
    Trace VT = decodedTrace(Virt, Budget);

    Interpreter Conc(*M, IO);
    Conc.startCall(F, {});
    Trace CT = concreteTrace(Conc, Budget);

    expectTracesEqual(VT, CT, What);
    ASSERT_EQ(Virt.done(), Conc.done()) << What;
    if (!Virt.done()) {
      EXPECT_EQ(Virt.topFrame().Block, Conc.topFrame().Block) << What;
      EXPECT_EQ(Virt.topFrame().Index, Conc.topFrame().Index) << What;
    }
  }
}

TEST(InterpRunWithTest, ConcreteSinkStopsOnFirstHalfOfFusedPair) {
  auto M = compileOrDie("int a[8];\n"
                        "int main() { int i; int s;\n"
                        "  for (i = 0; i < 6; i = i + 1) { a[i % 8] = s + i; "
                        "s = s + a[i % 8] * 2; }\n"
                        "  return s; }\n");
  const Function *F = M->findFunction("main");
  ASSERT_NE(F, nullptr);
  const DecodedFunction Img = decodeFunction(*M, *F, arrayBaseLayout(*M));
  ASSERT_GT(Img.NumFused, 0u);

  InterpOptions IO;
  Interpreter Probe(*M, IO);
  Probe.startCall(F, {});
  const uint64_t Total = decodedTrace(Probe, ~0ull).Steps;
  ASSERT_GT(Total, 10u);

  unsigned MidPairStops = 0;
  for (uint64_t Stop = 1; Stop < Total; ++Stop) {
    const std::string What = "stop after record " + std::to_string(Stop);
    Interpreter Virt(*M, IO);
    Virt.startCall(F, {});
    Trace VT = decodedTrace(Virt, ~0ull, Stop);

    Interpreter Conc(*M, IO);
    Conc.startCall(F, {});
    Trace CT = concreteTrace(Conc, ~0ull, Stop);

    expectTracesEqual(VT, CT, What);
    ASSERT_EQ(CT.Steps, Stop) << What << ": extra records after the stop";
    ASSERT_EQ(Conc.instrCount(), Virt.instrCount()) << What;
    ASSERT_EQ(Conc.topFrame().Block, Virt.topFrame().Block) << What;
    ASSERT_EQ(Conc.topFrame().Index, Virt.topFrame().Index) << What;

    // Stopped right after the first half of a fused pair: the machine sits
    // on the pair's second slot.
    const Frame &Fr = Conc.topFrame();
    if (Fr.Index > 0 && Img.Code[Img.offsetOf(Fr.Block, Fr.Index - 1)].I1)
      ++MidPairStops;

    // Both machines resume identically through the reference.
    uint64_t VH = kFnvBasis, CH = kFnvBasis;
    while (!Virt.done())
      VH = hashStepResult(VH, referenceStep(Virt));
    while (!Conc.done())
      CH = hashStepResult(CH, referenceStep(Conc));
    ASSERT_EQ(CH, VH) << What << ": resumed tails diverge";
    EXPECT_EQ(Conc.memoryHash(), Virt.memoryHash()) << What;
  }
  EXPECT_GT(MidPairStops, 0u) << "no stop landed inside a fused pair";
}

//===----------------------------------------------------------------------===//
// Mid-function entry.
//===----------------------------------------------------------------------===//

TEST(InterpDecodeDiffTest, MidFunctionStartAtIncludingFusedSecondHalf) {
  auto M = compileOrDie("int a[16];\n"
                        "int main() { int i; int s;\n"
                        "  for (i = 0; i < 12; i = i + 1) { a[i] = s + i; "
                        "s = s + a[i] * 2; }\n"
                        "  return s; }\n");
  const Function *F = M->findFunction("main");
  ASSERT_NE(F, nullptr);

  // The loop compare feeding the backedge branch guarantees fusion.
  ASSERT_GT(decodeFunction(*M, *F, arrayBaseLayout(*M)).NumFused, 0u)
      << "expected at least one fused pair";

  // Start positions: every (block, index) in the function, which includes
  // the second-half slots of fused pairs (normal flow skips them; startAt
  // must still enter there and agree with the reference).
  std::vector<Value> Regs(F->numRegs());
  for (size_t I = 0; I != Regs.size(); ++I)
    Regs[I] = Value::ofInt(static_cast<int64_t>(I % 5) - 1);

  unsigned Positions = 0;
  for (BlockId B = 0; B != static_cast<BlockId>(F->numBlocks()); ++B) {
    const uint32_t NInstrs =
        static_cast<uint32_t>(F->block(B)->Instrs.size());
    for (uint32_t Idx = 0; Idx != NInstrs; ++Idx) {
      InterpOptions IO;
      Interpreter Ref(*M, IO);
      Ref.startAt(F, B, Idx, Regs);
      Trace RT = referenceTrace(Ref, 100000);

      Interpreter Dec(*M, IO);
      Dec.startAt(F, B, Idx, Regs);
      Trace DT = decodedTrace(Dec, 100000);

      expectTracesEqual(RT, DT,
                        "startAt block " + std::to_string(B) + " index " +
                            std::to_string(Idx));
      ++Positions;
    }
  }
  EXPECT_GT(Positions, 4u);
}

//===----------------------------------------------------------------------===//
// Ghost contexts (MemHooks redirection).
//===----------------------------------------------------------------------===//

TEST(InterpDecodeDiffTest, GhostContextWithMemHooks) {
  auto M = compileOrDie("int a[32];\n"
                        "int main() { int i; int s;\n"
                        "  for (i = 0; i < 24; i = i + 1) {\n"
                        "    a[i % 8] = a[i % 8] + i;\n"
                        "    s = s + a[(i + 3) % 8];\n"
                        "  }\n"
                        "  return s; }\n");
  const Function *F = M->findFunction("main");
  ASSERT_NE(F, nullptr);

  InterpOptions IO;
  Interpreter Ref(*M, IO);
  BufferingHooks RefHooks;
  Ref.setMemHooks(&RefHooks);
  Ref.startCall(F, {});
  Trace RT = referenceTrace(Ref, 1000000);

  Interpreter Dec(*M, IO);
  BufferingHooks DecHooks;
  Dec.setMemHooks(&DecHooks);
  Dec.startCall(F, {});
  Trace DT = decodedTrace(Dec, 1000000);

  expectTracesEqual(RT, DT, "hooked run");
  // Both engines must have driven the hooks with the same access sequence,
  // and (all stores buffered) both memory images must still be pristine.
  EXPECT_EQ(RefHooks.Log, DecHooks.Log);
  EXPECT_EQ(Ref.memoryHash(), Dec.memoryHash());
}

TEST(InterpDecodeDiffTest, GhostSharingConstructorSharesMemory) {
  // A ghost built from a host must read the host's array image through the
  // decoded engine exactly as it does through the reference.
  auto M = compileOrDie("int a[8];\n"
                        "int seedmem() { int i; for (i = 0; i < 8; i = i + 1)"
                        " a[i] = i * 7; return 0; }\n"
                        "int main() { int i; int s;\n"
                        "  for (i = 0; i < 8; i = i + 1) s = s + a[i];\n"
                        "  return s; }\n");
  const Function *Seed = M->findFunction("seedmem");
  const Function *Main = M->findFunction("main");
  ASSERT_NE(Seed, nullptr);
  ASSERT_NE(Main, nullptr);

  // Each engine gets its own host+ghost pair; the hosts compute identical
  // memory images.
  InterpOptions IO;
  Interpreter RefHost(*M, IO);
  RefHost.startCall(Seed, {});
  RefHost.run();
  ASSERT_TRUE(RefHost.done());
  Interpreter RefGhost(*M, RefHost);
  RefGhost.startCall(Main, {});
  Trace RT = referenceTrace(RefGhost, 100000);

  Interpreter DecHost(*M, IO);
  DecHost.startCall(Seed, {});
  DecHost.run();
  ASSERT_TRUE(DecHost.done());
  Interpreter DecGhost(*M, DecHost);
  DecGhost.startCall(Main, {});
  Trace DT = decodedTrace(DecGhost, 100000);

  expectTracesEqual(RT, DT, "ghost over shared memory");
  ASSERT_TRUE(DecGhost.done());
  EXPECT_EQ(DecGhost.returnValue().I, 7 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(InterpDecodeDiffTest, GhostEntersCalleeItsHostNeverEntered) {
  // The host only ran seedmem, so the ghost is the first to enter main and
  // its callee g. The host then runs main itself, after the ghost is gone.
  auto M = compileOrDie("int a[8];\n"
                        "int seedmem() { int i; for (i = 0; i < 8; i = i + 1)"
                        " a[i] = i * 7; return 0; }\n"
                        "int g(int x) { a[x % 8] = a[x % 8] + 1; "
                        "return x * 3 + 1; }\n"
                        "int main() { int i; int s;\n"
                        "  for (i = 0; i < 8; i = i + 1) s = s + g(a[i]);\n"
                        "  print_int(s);\n"
                        "  return s; }\n");
  const Function *Seed = M->findFunction("seedmem");
  const Function *Main = M->findFunction("main");
  ASSERT_NE(Seed, nullptr);
  ASSERT_NE(Main, nullptr);

  InterpOptions IO;
  Interpreter RefHost(*M, IO);
  RefHost.startCall(Seed, {});
  RefHost.run();
  Trace RefGhostTrace;
  {
    Interpreter RefGhost(*M, RefHost);
    RefGhost.startCall(Main, {});
    RefGhostTrace = referenceTrace(RefGhost, 100000);
  }
  RefHost.startCall(Main, {});
  const Trace RefHostTrace = referenceTrace(RefHost, 100000);

  Interpreter DecHost(*M, IO);
  DecHost.startCall(Seed, {});
  DecHost.run();
  ASSERT_TRUE(DecHost.done());
  {
    Interpreter DecGhost(*M, DecHost);
    DecGhost.startCall(Main, {});
    expectTracesEqual(RefGhostTrace, decodedTrace(DecGhost, 100000),
                      "ghost entering main and g");
  }
  DecHost.startCall(Main, {});
  expectTracesEqual(RefHostTrace, decodedTrace(DecHost, 100000),
                    "host entering main and g after its ghost");
  EXPECT_TRUE(RefHostTrace.Done);
  EXPECT_FALSE(RefHostTrace.Output.empty());
}

//===----------------------------------------------------------------------===//
// In-place rewrites between interpreters.
//===----------------------------------------------------------------------===//

TEST(InterpDecodeDiffTest, NewInterpreterSeesInPlaceRewrites) {
  // Passes rewrite functions in place while earlier interpreters over the
  // module are still alive. An interpreter started after a rewrite must
  // execute the current body, never an image decoded before it: a stale
  // image would replay the old constant, or (storage moved, loop
  // unrolled) read freed Instrs, which the sanitizer build reports.
  auto M = compileOrDie("int a[16];\n"
                        "int g(int x) { return x * 3 + 1; }\n"
                        "int main() { int i; int s;\n"
                        "  for (i = 0; i < 12; i = i + 1) { a[i] = g(s) + i; "
                        "s = s + a[i] * 2; }\n"
                        "  print_int(s);\n"
                        "  return s; }\n");
  Function *Main = M->findFunction("main");
  ASSERT_NE(Main, nullptr);

  InterpOptions IO;
  Interpreter First(*M, IO);
  First.startCall(Main, {});
  First.run();
  ASSERT_TRUE(First.done());
  const int64_t Before = First.returnValue().I;
  EXPECT_EQ(runDifferential(*M, "before any rewrite").Ret.I, Before);

  // 1. A constant's immediate: the loop's "* 2" becomes "* 5".
  bool Changed = false;
  for (BlockId B = 0; B != Main->numBlocks() && !Changed; ++B)
    for (Instr &I : Main->block(B)->Instrs)
      if (I.Op == Opcode::ConstInt && I.IntImm == 2) {
        I.IntImm = 5;
        Changed = true;
        break;
      }
  ASSERT_TRUE(Changed);
  const Trace Scaled = runDifferential(*M, "immediate changed");
  ASSERT_TRUE(Scaled.Done);
  EXPECT_NE(Scaled.Ret.I, Before);

  // 2. Every block's instructions copied into new storage; the old
  // storage is freed.
  for (size_t FI = 0; FI != M->numFunctions(); ++FI) {
    Function *F = M->function(static_cast<uint32_t>(FI));
    for (BlockId B = 0; B != F->numBlocks(); ++B) {
      BasicBlock *BB = F->block(B);
      std::vector<Instr> Copy(BB->Instrs);
      const Instr *Old = BB->Instrs.data();
      BB->Instrs.swap(Copy);
      if (!Copy.empty()) {
        ASSERT_NE(BB->Instrs.data(), Old);
      }
    }
  }
  EXPECT_EQ(runDifferential(*M, "storage moved").Ret.I, Scaled.Ret.I);

  // 3. The loop unrolled by 3.
  const size_t BlocksBefore = Main->numBlocks();
  {
    const CfgInfo Cfg = CfgInfo::compute(*Main);
    const LoopNest Nest = LoopNest::compute(*Main, Cfg);
    ASSERT_EQ(Nest.numLoops(), 1u);
    ASSERT_TRUE(unrollLoop(*Main, *Nest.loop(0), 3).Ok);
  }
  ASSERT_GT(Main->numBlocks(), BlocksBefore);
  EXPECT_EQ(runDifferential(*M, "loop unrolled").Ret.I, Scaled.Ret.I);
}

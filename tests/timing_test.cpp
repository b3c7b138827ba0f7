//===- tests/timing_test.cpp - Core timing model unit tests -------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Direct unit tests of the CoreTiming scoreboard: bandwidth limits,
// dependence stalls, the in-flight window, clock control (setNow vs
// advanceTo), misprediction penalties, cache-latency integration and the
// flat register arena against per-frame vectors —
// plus frequency-propagation (Wu-Larus) numeric checks.
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "interp/DecodeEngine.h"
#include "interp/Interp.h"
#include "lang/Frontend.h"
#include "sim/CoreTiming.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace spt;

namespace {

/// Feeds every retired instruction to the timing model with the stack depth
/// after it, as runSequential's sink does.
struct TimingSink {
  CoreTiming &Core;
  const Interpreter &In;
  bool onStep(const StepResult &R) {
    Core.onStep(R, In.stackDepth());
    return true;
  }
};

/// Runs \p Src's f(arg) through the timing model and returns cycles.
double timedCycles(const std::string &Src, int64_t Arg,
                   MachineConfig Machine = MachineConfig()) {
  auto M = compileOrDie(Src);
  Interpreter In(*M);
  In.startCall(M->findFunction("f"), {Value::ofInt(Arg)});
  CacheHierarchy Cache(Machine);
  BranchPredictor Pred;
  CoreTiming Core(Machine, Cache, Pred);
  TimingSink S{Core, In};
  In.runWith(S);
  return Core.cyclesNow();
}

} // namespace

TEST(CoreTimingTest, BandwidthBound) {
  // Straight-line independent ALU work cannot beat IssueWidth.
  const char *Src = "int f(int n) {\n"
                    "  int a; int b; int c; int d; int i;\n"
                    "  for (i = 0; i < n; i = i + 1) {\n"
                    "    a = i + 1; b = i + 2; c = i + 3; d = i + 4;\n"
                    "  }\n"
                    "  return a + b + c + d;\n"
                    "}\n";
  auto M = compileOrDie(Src);
  Interpreter In(*M);
  In.startCall(M->findFunction("f"), {Value::ofInt(2000)});
  MachineConfig Machine;
  CacheHierarchy Cache(Machine);
  BranchPredictor Pred;
  CoreTiming Core(Machine, Cache, Pred);
  TimingSink S{Core, In};
  const uint64_t Steps = In.runWith(S);
  ASSERT_TRUE(In.done());
  const double Ipc = static_cast<double>(Steps) / Core.cyclesNow();
  EXPECT_LE(Ipc, Machine.IssueWidth + 1e-9);
  EXPECT_GT(Ipc, Machine.IssueWidth * 0.7);
}

TEST(CoreTimingTest, DivisionChainDominatedByLatency) {
  const char *Chain = "int f(int n) {\n"
                      "  int x; int i; x = 1 << 30;\n"
                      "  for (i = 0; i < n; i = i + 1) x = x / 2 + x;\n"
                      "  return x;\n"
                      "}\n";
  MachineConfig Machine;
  const double Cycles = timedCycles(Chain, 500, Machine);
  // Each iteration carries at least the divide latency.
  EXPECT_GT(Cycles, 500.0 * Machine.LatIntDiv * 0.8);
}

TEST(CoreTimingTest, WindowBoundsLatencyHiding) {
  // Independent divides: a wider window hides more of their latency.
  const char *Src = "int f(int n) {\n"
                    "  int a; int b; int i;\n"
                    "  for (i = 0; i < n; i = i + 1) {\n"
                    "    a = (i + 17) / 3; b = (i + 29) / 5;\n"
                    "  }\n"
                    "  return a + b;\n"
                    "}\n";
  MachineConfig Narrow;
  Narrow.SchedulingWindow = 4;
  MachineConfig Wide;
  Wide.SchedulingWindow = 64;
  EXPECT_GT(timedCycles(Src, 1000, Narrow),
            timedCycles(Src, 1000, Wide) * 1.3);
}

TEST(CoreTimingTest, MispredictionPenaltyVisible) {
  // A data-dependent unpredictable branch vs an always-taken one.
  const char *Unpredictable =
      "int f(int n) {\n"
      "  int i; int s; int v;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    v = (i * 2654435761) & 1;\n"
      "    if (v == 1) s = s + 3; else s = s + 1;\n"
      "  }\n"
      "  return s;\n"
      "}\n";
  const char *Predictable = "int f(int n) {\n"
                            "  int i; int s; int v;\n"
                            "  for (i = 0; i < n; i = i + 1) {\n"
                            "    v = i & 0;\n"
                            "    if (v == 0) s = s + 3; else s = s + 1;\n"
                            "  }\n"
                            "  return s;\n"
                            "}\n";
  EXPECT_GT(timedCycles(Unpredictable, 3000),
            timedCycles(Predictable, 3000) * 1.2);
}

TEST(CoreTimingTest, AdvanceToKeepsStateSetNowFlushes) {
  MachineConfig Machine;
  CacheHierarchy Cache(Machine);
  BranchPredictor Pred;
  CoreTiming Core(Machine, Cache, Pred);
  Core.charge(10);
  const uint64_t T0 = Core.now();
  Core.advanceTo(T0 + 5 * SubticksPerCycle);
  EXPECT_EQ(Core.now(), T0 + 5 * SubticksPerCycle);
  Core.advanceTo(T0); // Never goes backwards.
  EXPECT_EQ(Core.now(), T0 + 5 * SubticksPerCycle);
  Core.setNow(42 * SubticksPerCycle);
  EXPECT_EQ(Core.now(), 42 * SubticksPerCycle);
  EXPECT_DOUBLE_EQ(Core.cyclesNow(), 42.0);
}

TEST(CoreTimingTest, ColdLoadsCostMemoryLatency) {
  const char *Src = "int big[131072];\n"
                    "int f(int n) {\n"
                    "  int i; int s;\n"
                    "  for (i = 0; i < n; i = i + 1)\n"
                    "    s = s + big[(i * 8192) & 131071];\n" // New line each.
                    "  return s;\n"
                    "}\n";
  MachineConfig Machine;
  const double Cycles = timedCycles(Src, 64, Machine);
  // 16 distinct lines cycled: first 16 accesses miss to memory.
  EXPECT_GT(Cycles, Machine.MemLatencyCycles);
}

/// The register scoreboard as one vector per frame, the layout CoreTiming
/// had before its flat arena, with the same issue, window and call/return
/// rules for the ops flatScoreboardStep generates (no loads, stores or
/// branches). The oracle for FlatScoreboardMatchesNestedVectors.
class NestedScoreboard {
public:
  explicit NestedScoreboard(const MachineConfig &M)
      : M(M), IssueSlot(SubticksPerCycle / M.IssueWidth),
        InFlight(M.SchedulingWindow, 0) {}

  void onStep(const StepResult &R, size_t Depth) {
    const Instr *I = R.I;
    uint64_t Lat = I->Op == Opcode::Div   ? M.LatIntDiv
                   : I->Op == Opcode::Ret ? M.LatBranch
                   : R.IsCallEnter        ? M.CallOverhead
                                          : M.LatIntAlu;
    const size_t ExecFrame =
        R.IsReturn ? Depth : (Depth == 0 ? 0 : Depth - 1);
    const size_t SrcFrame =
        R.IsCallEnter && ExecFrame > 0 ? ExecFrame - 1 : ExecFrame;
    uint64_t IssueAt = std::max(SlotTime, InFlight[InFlightIdx]);
    for (Reg S : I->Srcs)
      if (SrcFrame < Frames.size() && S < Frames[SrcFrame].size())
        IssueAt = std::max(IssueAt, Frames[SrcFrame][S]);
    SlotTime += IssueSlot;
    const uint64_t Done = IssueAt + IssueSlot + Lat * SubticksPerCycle;
    Now = std::max(Now, Done);
    InFlight[InFlightIdx] = Done;
    InFlightIdx = (InFlightIdx + 1) % InFlight.size();
    if (I->Dst != NoReg && !R.IsCallEnter)
      set(SrcFrame, I->Dst, Done);
    if (R.IsCallEnter) {
      if (Frames.size() < Depth)
        Frames.resize(Depth);
      Frames[Depth - 1].clear();
      const uint64_t Args =
          IssueAt + IssueSlot + M.CallOverhead * SubticksPerCycle;
      for (size_t A = 0; A != I->Srcs.size(); ++A)
        set(Depth - 1, static_cast<Reg>(A), Args);
      SlotTime = std::max(SlotTime, Args);
      Now = std::max(Now, SlotTime);
    } else if (R.IsReturn) {
      if (Frames.size() > Depth)
        Frames.resize(Depth);
      SlotTime += M.CallOverhead * SubticksPerCycle / 2;
      Now = std::max(Now, SlotTime);
    }
  }

  void setNow(uint64_t T) {
    Now = SlotTime = T;
    for (auto &F : Frames)
      std::fill(F.begin(), F.end(), T);
    std::fill(InFlight.begin(), InFlight.end(), T);
    InFlightIdx = 0;
  }
  void resetFor(uint64_t T) {
    Now = SlotTime = T;
    Frames.clear();
    std::fill(InFlight.begin(), InFlight.end(), T);
    InFlightIdx = 0;
  }
  uint64_t now() const { return Now; }

private:
  void set(size_t Frame, Reg R, uint64_t T) {
    if (Frame >= Frames.size())
      Frames.resize(Frame + 1);
    if (R >= Frames[Frame].size())
      Frames[Frame].resize(R + 1, 0);
    Frames[Frame][R] = T;
  }

  const MachineConfig &M;
  uint64_t IssueSlot;
  uint64_t Now = 0, SlotTime = 0;
  std::vector<uint64_t> InFlight;
  size_t InFlightIdx = 0;
  std::vector<std::vector<uint64_t>> Frames;
};

TEST(CoreTimingTest, FlatScoreboardMatchesNestedVectors) {
  // Random records at random stack depths reach every arena path: frames
  // created several at a time, writes to a frame below the top (which
  // moves the frames above it), calls that clear a frame still holding
  // deeper ones, returns, setNow and resetFor. The clock must match the
  // per-frame-vector scoreboard after every step.
  MachineConfig Machine;
  CacheHierarchy Cache(Machine);
  BranchPredictor Pred;
  CoreTiming Core(Machine, Cache, Pred);
  NestedScoreboard Ref(Machine);

  Random Rng(7);
  std::vector<Instr> Instrs(4000);
  for (int Step = 0; Step != 4000; ++Step) {
    Instr &I = Instrs[Step];
    StepResult R;
    R.I = &I;
    const size_t Depth = 1 + static_cast<size_t>(Rng.nextBelow(6));
    const int64_t Kind = Rng.nextBelow(10);
    I.Op = Kind == 0 ? Opcode::Div : Opcode::Add;
    for (int64_t S = Rng.nextBelow(3); S != 0; --S)
      I.Srcs.push_back(static_cast<Reg>(Rng.nextBelow(48)));
    if (Kind == 1) {
      I.Op = Opcode::Call;
      R.IsCallEnter = true;
    } else if (Kind == 2) {
      I.Op = Opcode::Ret;
      I.Srcs.resize(std::min<size_t>(I.Srcs.size(), 1));
      R.IsReturn = true;
    } else {
      I.Dst = static_cast<Reg>(Rng.nextBelow(Kind == 3 ? 400 : 48));
    }
    Core.onStep(R, Depth);
    Ref.onStep(R, Depth);
    ASSERT_EQ(Core.now(), Ref.now()) << "step " << Step;
    if (Step % 500 == 499) {
      Core.setNow(Core.now() + 3);
      Ref.setNow(Ref.now() + 3);
    }
    if (Step % 1500 == 1499) {
      Core.resetFor(Core.now() + 5);
      Ref.resetFor(Ref.now() + 5);
    }
  }
}

//===----------------------------------------------------------------------===//
// Frequency propagation numeric checks
//===----------------------------------------------------------------------===//

TEST(FreqNumericTest, DiamondSplitsEvenly) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int x;\n"
                        "  if (n > 0) x = 1; else x = 2;\n"
                        "  return x;\n"
                        "}\n");
  const Function *F = M->findFunction("f");
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  CfgProbabilities P = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
  FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, P);
  // Entry has frequency 1; the two arms ~0.5 each.
  EXPECT_NEAR(Freq.blockFreq(F->entry()), 1.0, 1e-9);
  int Halves = 0;
  for (const auto &BB : *F)
    if (std::abs(Freq.blockFreq(BB->id()) - 0.5) < 1e-9)
      ++Halves;
  EXPECT_EQ(Halves, 2);
}

TEST(FreqNumericTest, StaticLoopTripMatchesBackEdgeBias) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int i; int s;\n"
                        "  for (i = 0; i < n; i = i + 1) s = s + i;\n"
                        "  return s;\n"
                        "}\n");
  const Function *F = M->findFunction("f");
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  CfgProbabilities P = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
  FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, P);
  // Back-edge bias 0.9 yields an expected trip count of ~10.
  EXPECT_NEAR(Freq.avgTripCount(*Nest.loop(0)), 10.0, 1.5);
}

TEST(FreqNumericTest, NestedLoopsMultiply) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int i; int j; int s;\n"
                        "  for (i = 0; i < n; i = i + 1)\n"
                        "    for (j = 0; j < n; j = j + 1)\n"
                        "      s = s + 1;\n"
                        "  return s;\n"
                        "}\n");
  const Function *F = M->findFunction("f");
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  CfgProbabilities P = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
  FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, P);
  const Loop *Inner = nullptr;
  for (uint32_t I = 0; I != Nest.numLoops(); ++I)
    if (Nest.loop(I)->Depth == 2)
      Inner = Nest.loop(I);
  ASSERT_NE(Inner, nullptr);
  // The inner header runs ~trip_outer * trip_inner ~ 100 times.
  EXPECT_GT(Freq.blockFreq(Inner->Header), 50.0);
  EXPECT_LT(Freq.blockFreq(Inner->Header), 200.0);
}

//===- tests/sim_test.cpp - Cache/core/sequential/SPT simulator tests ---------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"
#include "sim/CoreTiming.h"
#include "sim/SeqSim.h"
#include "sim/SptSim.h"

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "cost/CostModel.h"
#include "interp/Interp.h"
#include "ir/Verifier.h"
#include "lang/Frontend.h"
#include "partition/Partition.h"
#include "transform/SptTransform.h"

#include <gtest/gtest.h>

using namespace spt;

//===----------------------------------------------------------------------===//
// Cache
//===----------------------------------------------------------------------===//

TEST(CacheTest, RepeatedAccessHitsL1) {
  MachineConfig Machine;
  CacheHierarchy Cache(Machine);
  const uint32_t Cold = Cache.access(0x1000);
  EXPECT_EQ(Cold, Machine.MemLatencyCycles);
  const uint32_t Warm = Cache.access(0x1000);
  EXPECT_EQ(Warm, Machine.L1.HitLatencyCycles);
  // Same line.
  EXPECT_EQ(Cache.access(0x1008), Machine.L1.HitLatencyCycles);
}

TEST(CacheTest, CapacityEvictionFallsToL2) {
  MachineConfig Machine;
  CacheHierarchy Cache(Machine);
  Cache.access(0x1000);
  // Stream enough lines to evict 0x1000 from L1 (16 KiB) but not L2.
  for (uint64_t A = 0x100000; A < 0x100000 + 64 * 1024; A += 64)
    Cache.access(A);
  const uint32_t Lat = Cache.access(0x1000);
  EXPECT_GT(Lat, Machine.L1.HitLatencyCycles);
}

TEST(CacheTest, LruKeepsHotLines) {
  MachineConfig Machine;
  Machine.L1 = CacheLevelConfig{1024, 64, 2, 1}; // 8 sets, 2 ways.
  CacheHierarchy Cache(Machine);
  // Two lines in the same set, repeatedly touched, plus a third evicting
  // the colder one.
  const uint64_t A = 0x0, B = 8 * 64, C = 16 * 64; // Same set (8 sets).
  Cache.access(A);
  Cache.access(B);
  Cache.access(A); // A is now the hotter way.
  Cache.access(C); // Evicts B.
  EXPECT_EQ(Cache.access(A), Machine.L1.HitLatencyCycles);
  EXPECT_GT(Cache.access(B), Machine.L1.HitLatencyCycles);
}

//===----------------------------------------------------------------------===//
// Branch predictor
//===----------------------------------------------------------------------===//

TEST(BranchPredictorTest, LearnsStableDirection) {
  BranchPredictor P;
  const uint32_t Fn = 0; // Module function index.
  int Wrong = 0;
  for (int I = 0; I < 100; ++I)
    if (!P.predictAndTrain(Fn, 1, true))
      ++Wrong;
  EXPECT_LE(Wrong, 2); // Warms up in two steps from strongly-not-taken.
  EXPECT_EQ(P.lookups(), 100u);
}

TEST(BranchPredictorTest, AlternatingPatternHurts) {
  BranchPredictor P;
  const uint32_t Fn = 0; // Module function index.
  int Wrong = 0;
  for (int I = 0; I < 100; ++I)
    if (!P.predictAndTrain(Fn, 2, I % 2 == 0))
      ++Wrong;
  EXPECT_GT(Wrong, 30); // 2-bit counters cannot track alternation.
}

//===----------------------------------------------------------------------===//
// Sequential simulation
//===----------------------------------------------------------------------===//

TEST(SeqSimTest, MatchesInterpreterFunctionally) {
  auto M = compileOrDie("int a[64];\n"
                        "int f(int n) {\n"
                        "  int i; int s;\n"
                        "  for (i = 0; i < n; i = i + 1) a[i % 64] = i;\n"
                        "  for (i = 0; i < 64; i = i + 1) s = s + a[i];\n"
                        "  return s;\n"
                        "}\n");
  RunOutcome Want = runFunction(*M, "f", {Value::ofInt(100)});
  SeqSimResult Got = runSequential(*M, "f", {Value::ofInt(100)});
  EXPECT_EQ(Got.Result.I, Want.Result.I);
  EXPECT_GT(Got.Instrs, 0u);
  EXPECT_GT(Got.cycles(), 0.0);
}

TEST(SeqSimTest, IpcWithinMachineBounds) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int s; int i;\n"
                        "  for (i = 0; i < n; i = i + 1) s = s + i;\n"
                        "  return s;\n"
                        "}\n");
  SeqSimResult R = runSequential(*M, "f", {Value::ofInt(5000)});
  EXPECT_GT(R.ipc(), 0.1);
  EXPECT_LE(R.ipc(), 2.0 + 1e-9); // IssueWidth.
}

TEST(SeqSimTest, DependentChainSlowerThanIndependent) {
  // Long-latency dependent chain (divisions feeding each other) vs the
  // same number of independent divisions.
  auto Dep = compileOrDie("int f(int n) {\n"
                          "  int x; int i; x = 1000000;\n"
                          "  for (i = 0; i < n; i = i + 1) x = x / 2 + x;\n"
                          "  return x;\n"
                          "}\n");
  auto Ind = compileOrDie("int f(int n) {\n"
                          "  int x; int y; int z; int i; x = 1000000;\n"
                          "  for (i = 0; i < n; i = i + 1) {\n"
                          "    y = x / 2; z = x / 3; y = x / 5;\n"
                          "  }\n"
                          "  return y + z;\n"
                          "}\n");
  SeqSimResult RDep = runSequential(*Dep, "f", {Value::ofInt(2000)});
  SeqSimResult RInd = runSequential(*Ind, "f", {Value::ofInt(2000)});
  EXPECT_LT(RDep.ipc(), RInd.ipc());
}

TEST(SeqSimTest, PointerChasingLowersIpc) {
  // Random-ordered dependent loads over a large array (mcf-like) vs a
  // dense sequential sweep (gzip-like).
  // Both programs run the same short setup sweep; the measured phase is
  // long enough to dominate. The chased array (8 MiB) exceeds the L3.
  const char *ChaseSrc =
      "int next[1048576];\n"
      "int f(int n) {\n"
      "  int i; int p; int s;\n"
      "  for (i = 0; i < 1048576; i = i + 1)\n"
      "    next[i] = (i * 40503 + 12345) % 1048576;\n"
      "  p = 0;\n"
      "  for (i = 0; i < n; i = i + 1) { p = next[p]; s = s + p; }\n"
      "  return s;\n"
      "}\n";
  const char *SweepSrc = "int a[1048576];\n"
                         "int f(int n) {\n"
                         "  int i; int s;\n"
                         "  for (i = 0; i < 1048576; i = i + 1)\n"
                         "    a[i] = i;\n"
                         "  for (i = 0; i < n; i = i + 1)\n"
                         "    s = s + a[i % 1048576] + i;\n"
                         "  return s;\n"
                         "}\n";
  auto Chase = compileOrDie(ChaseSrc);
  auto Sweep = compileOrDie(SweepSrc);
  SeqSimResult RChase = runSequential(*Chase, "f", {Value::ofInt(2000000)});
  SeqSimResult RSweep = runSequential(*Sweep, "f", {Value::ofInt(2000000)});
  EXPECT_LT(RChase.ipc() * 1.5, RSweep.ipc());
}

TEST(SeqSimTest, PerLoopAttributionCoversHotLoop) {
  auto M = compileOrDie("fp a[128];\n"
                        "int f(int n) {\n"
                        "  int i; int j; fp s;\n"
                        "  for (i = 0; i < n; i = i + 1)\n"
                        "    for (j = 0; j < 128; j = j + 1)\n"
                        "      s = s + a[j] * 1.5;\n"
                        "  return ftoi(s);\n"
                        "}\n");
  SeqSimResult R = runSequential(*M, "f", {Value::ofInt(50)});
  const Function *F = M->findFunction("f");
  // The outer loop covers nearly all cycles.
  uint64_t Best = 0;
  for (const auto &[Key, Stats] : R.PerLoop)
    if (Key.first == F)
      Best = std::max(Best, Stats.Subticks);
  EXPECT_GT(static_cast<double>(Best),
            0.9 * static_cast<double>(R.Subticks));
}

//===----------------------------------------------------------------------===//
// SPT simulation
//===----------------------------------------------------------------------===//

namespace {

/// Transforms the requested top-level loop of f and returns the loop-desc
/// map for runSpt.
std::map<int64_t, SptLoopDesc> sptPrepare(Module &M,
                                          double PreForkFraction = 0.34) {
  Function *F = M.findFunction("f");
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  const Loop *Outer = nullptr;
  for (uint32_t I = 0; I != Nest.numLoops(); ++I)
    if (Nest.loop(I)->Depth == 1 &&
        (!Outer || Nest.loop(I)->Blocks.size() > Outer->Blocks.size()))
      Outer = Nest.loop(I);
  EXPECT_NE(Outer, nullptr);
  auto Probs = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
  FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);
  CallEffects Effects = CallEffects::compute(M);
  LoopDepGraph G =
      LoopDepGraph::build(M, *F, Cfg, *Outer, Freq, Effects);
  MisspecCostModel Model(G);
  PartitionOptions POpts;
  POpts.PreForkSizeFraction = PreForkFraction;
  PartitionResult P = PartitionSearch(G, Model, POpts).run();
  EXPECT_TRUE(P.Searched);
  SptTransformResult R =
      applySptTransform(M, *F, Cfg, *Outer, G, P.InPreFork, /*LoopId=*/1);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(verifyFunction(M, *F), "");
  std::map<int64_t, SptLoopDesc> Loops;
  Loops[1] = SptLoopDesc{F, R.PreForkEntry};
  return Loops;
}

/// A loop with independent, heavyweight iterations: ideal speculation.
/// The body must be big enough to amortize fork/commit (the economics the
/// paper's ~400-instruction SPT loop bodies reflect).
const char *IndependentSrc =
    "fp a[4096]; fp b[4096]; fp c[4096];\n"
    "int f(int n) {\n"
    "  int i; fp s;\n"
    "  for (i = 0; i < n; i = i + 1) {\n"
    "    int k; fp v; fp w; fp u;\n"
    "    k = i % 4096;\n"
    "    v = a[k] * 3.0 + 1.0;\n"
    "    v = v / 7.0 + sqrt(v);\n"
    "    v = v * v + sqrt(v + 2.0);\n"
    "    w = a[(k + 7) % 4096] * 1.5 - 2.0;\n"
    "    w = sqrt(w * w + 3.0) + w / 5.0;\n"
    "    u = v * 0.25 + w * 0.75 + sqrt(v + w + 9.0);\n"
    "    u = u + v / 3.0 + w / 9.0;\n"
    "    b[k] = v + w;\n"
    "    c[k] = u;\n"
    "    s = s + 1.0;\n"
    "  }\n"
    "  return ftoi(s);\n"
    "}\n";

/// A true memory recurrence: every speculation violates.
const char *DependentSrc =
    "int a[8192];\n"
    "int f(int n) {\n"
    "  int i;\n"
    "  a[0] = 1;\n"
    "  for (i = 1; i < n; i = i + 1)\n"
    "    a[i] = a[i - 1] * 3 + i + a[i - 1] / 7;\n"
    "  return a[n - 1];\n"
    "}\n";

} // namespace

TEST(SptSimTest, FunctionalCorrectnessIndependent) {
  auto Base = compileOrDie(IndependentSrc);
  auto Spt = compileOrDie(IndependentSrc);
  auto Loops = sptPrepare(*Spt);
  RunOutcome Want = runFunction(*Base, "f", {Value::ofInt(2000)});
  SptSimResult Got = runSpt(*Spt, "f", {Value::ofInt(2000)}, Loops);
  EXPECT_EQ(Got.Result.I, Want.Result.I);
}

TEST(SptSimTest, FunctionalCorrectnessDependent) {
  auto Base = compileOrDie(DependentSrc);
  auto Spt = compileOrDie(DependentSrc);
  auto Loops = sptPrepare(*Spt);
  RunOutcome Want = runFunction(*Base, "f", {Value::ofInt(4000)});
  SptSimResult Got = runSpt(*Spt, "f", {Value::ofInt(4000)}, Loops);
  EXPECT_EQ(Got.Result.I, Want.Result.I);
}

TEST(SptSimTest, IndependentLoopGetsSpeedup) {
  auto Base = compileOrDie(IndependentSrc);
  auto Spt = compileOrDie(IndependentSrc);
  auto Loops = sptPrepare(*Spt);
  SeqSimResult Seq = runSequential(*Base, "f", {Value::ofInt(3000)});
  SptSimResult Par = runSpt(*Spt, "f", {Value::ofInt(3000)}, Loops);
  const double Speedup = Seq.cycles() / Par.cycles();
  EXPECT_GT(Speedup, 1.15) << "independent iterations should overlap";
  EXPECT_LT(Speedup, 2.01) << "one speculative core caps speedup at 2x";
  const SptLoopRunStats &Stats = Par.PerLoop.at(1);
  EXPECT_GT(Stats.Forks, 100u);
  EXPECT_GT(Stats.Joins, 100u);
  EXPECT_LT(Stats.reexecRatio(), 0.1);
}

TEST(SptSimTest, DependentLoopViolatesAndGainsLittle) {
  auto Base = compileOrDie(DependentSrc);
  auto Spt = compileOrDie(DependentSrc);
  auto Loops = sptPrepare(*Spt);
  SeqSimResult Seq = runSequential(*Base, "f", {Value::ofInt(4000)});
  SptSimResult Par = runSpt(*Spt, "f", {Value::ofInt(4000)}, Loops);
  const SptLoopRunStats &Stats = Par.PerLoop.at(1);
  EXPECT_GT(Stats.Joins, 100u);
  EXPECT_GT(Stats.misspecRatio(), 0.9) << "every iteration depends";
  EXPECT_GT(Stats.reexecRatio(), 0.2);
  const double Speedup = Seq.cycles() / Par.cycles();
  EXPECT_LT(Speedup, 1.3);
}

TEST(SptSimTest, RngLoopStaysCorrect) {
  const char *Src = "int f(int n) {\n"
                    "  int i; int s;\n"
                    "  for (i = 0; i < n; i = i + 1)\n"
                    "    s = s + rnd(100) + i * 3;\n"
                    "  return s;\n"
                    "}\n";
  auto Base = compileOrDie(Src);
  auto Spt = compileOrDie(Src);
  auto Loops = sptPrepare(*Spt, /*PreForkFraction=*/0.6);
  RunOutcome Want = runFunction(*Base, "f", {Value::ofInt(500)});
  SptSimResult Got = runSpt(*Spt, "f", {Value::ofInt(500)}, Loops);
  EXPECT_EQ(Got.Result.I, Want.Result.I);
  // Speculative rnd() use must be flagged.
  EXPECT_GT(Got.PerLoop.at(1).misspecRatio(), 0.9);
}

TEST(SptSimTest, OutputPreservedUnderSpt) {
  const char *Src = "int f(int n) {\n"
                    "  int i; int s;\n"
                    "  for (i = 0; i < n; i = i + 1) {\n"
                    "    s = s + i;\n"
                    "    if (i % 10 == 0) print_int(s);\n"
                    "  }\n"
                    "  return s;\n"
                    "}\n";
  auto Base = compileOrDie(Src);
  auto Spt = compileOrDie(Src);
  auto Loops = sptPrepare(*Spt, 0.6);
  RunOutcome Want = runFunction(*Base, "f", {Value::ofInt(95)});
  SptSimResult Got = runSpt(*Spt, "f", {Value::ofInt(95)}, Loops);
  EXPECT_EQ(Got.Output, Want.Output);
  EXPECT_EQ(Got.Result.I, Want.Result.I);
}

TEST(SptSimTest, StatsAccounting) {
  auto Spt = compileOrDie(IndependentSrc);
  auto Loops = sptPrepare(*Spt);
  SptSimResult R = runSpt(*Spt, "f", {Value::ofInt(1000)}, Loops);
  const SptLoopRunStats &S = R.PerLoop.at(1);
  // Fork/join/kill accounting is consistent.
  EXPECT_LE(S.Joins + S.KilledBeforeJoin + S.Squashed, S.Forks);
  EXPECT_GE(S.Forks, S.Joins);
  EXPECT_GT(S.Iterations, 400u);
  EXPECT_GT(S.Subticks, 0u);
  EXPECT_LE(S.Subticks, R.Subticks);
  EXPECT_GT(S.SpecInstrs, 0u);
}

//===- tests/kway_sim_test.cpp - N-core speculative simulator tests -----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Differential and property tests for the generalized N-core SPT engine.
// The load-bearing contract: at Cores=2 the generalized engine is
// byte-identical to the two-core reference engine in
// testing/ReferenceSptSim.h (subticks, instruction counts, architectural
// state, and every per-loop counter).
// Beyond two cores the tests pin architectural equality against the
// sequential simulator, in-order commit accounting via SptCoreStats,
// squash propagation under forced faults, and the absence of write-buffer
// residue across repeated invocations.
//
//===----------------------------------------------------------------------===//

#include "sim/FaultInjector.h"
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
#include "testing/ReferenceSptSim.h"
#include "transform/SptTransform.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace spt;

namespace {

/// Transforms the largest top-level loop of f (same harness as sim_test).
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
      LoopDepGraph::build(M, *F, Cfg, Nest, *Outer, Freq, Effects);
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

const char *DependentSrc =
    "int a[8192];\n"
    "int f(int n) {\n"
    "  int i;\n"
    "  a[0] = 1;\n"
    "  for (i = 1; i < n; i = i + 1)\n"
    "    a[i] = a[i - 1] * 3 + i + a[i - 1] / 7;\n"
    "  return a[n - 1];\n"
    "}\n";

const char *RngSrc = "int f(int n) {\n"
                     "  int i; int s;\n"
                     "  for (i = 0; i < n; i = i + 1)\n"
                     "    s = s + rnd(100) + i * 3;\n"
                     "  return s;\n"
                     "}\n";

/// Full byte-identity: timing, instruction counts, architectural state,
/// and every per-loop speculation counter. CoreStats is deliberately
/// excluded — the reference engine reports none.
void expectIdentical(const SptSimResult &A, const SptSimResult &B) {
  EXPECT_EQ(A.Subticks, B.Subticks);
  EXPECT_EQ(A.Instrs, B.Instrs);
  EXPECT_EQ(A.Result.I, B.Result.I);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.MemoryHash, B.MemoryHash);
  ASSERT_EQ(A.PerLoop.size(), B.PerLoop.size());
  auto IA = A.PerLoop.begin();
  auto IB = B.PerLoop.begin();
  for (; IA != A.PerLoop.end(); ++IA, ++IB) {
    EXPECT_EQ(IA->first, IB->first);
    const SptLoopRunStats &SA = IA->second, &SB = IB->second;
    EXPECT_EQ(SA.Forks, SB.Forks);
    EXPECT_EQ(SA.Joins, SB.Joins);
    EXPECT_EQ(SA.KilledBeforeJoin, SB.KilledBeforeJoin);
    EXPECT_EQ(SA.Squashed, SB.Squashed);
    EXPECT_EQ(SA.ViolatedThreads, SB.ViolatedThreads);
    EXPECT_EQ(SA.SpecInstrs, SB.SpecInstrs);
    EXPECT_EQ(SA.ReexecInstrs, SB.ReexecInstrs);
    EXPECT_EQ(SA.Iterations, SB.Iterations);
    EXPECT_EQ(SA.Subticks, SB.Subticks);
  }
}

MachineConfig machineWith(uint32_t Cores) {
  MachineConfig MC;
  MC.Cores = Cores;
  return MC;
}

SptSimResult runCores(const Module &M,
                      const std::map<int64_t, SptLoopDesc> &Loops,
                      int64_t N, uint32_t Cores,
                      FaultInjector *FI = nullptr) {
  return runSpt(M, "f", {Value::ofInt(N)}, Loops, machineWith(Cores),
                /*MaxSteps=*/500000000ull, /*RngSeed=*/0x5eed5eed5eedull,
                FI);
}

SptSimResult runReference(const Module &M,
                          const std::map<int64_t, SptLoopDesc> &Loops,
                          int64_t N) {
  return runSptTwoCore(M, "f", {Value::ofInt(N)}, Loops);
}

uint64_t sumForks(const SptSimResult &R) {
  uint64_t S = 0;
  for (const auto &KV : R.PerLoop)
    S += KV.second.Forks;
  return S;
}

uint64_t sumJoins(const SptSimResult &R) {
  uint64_t S = 0;
  for (const auto &KV : R.PerLoop)
    S += KV.second.Joins;
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Two-core byte-identity: generalized engine vs retained reference
//===----------------------------------------------------------------------===//

TEST(KwaySimTest, TwoCoreByteIdentityIndependent) {
  auto Spt = compileOrDie(IndependentSrc);
  auto Loops = sptPrepare(*Spt);
  const SptSimResult Gen = runCores(*Spt, Loops, 2500, 2);
  const SptSimResult Ref = runReference(*Spt, Loops, 2500);
  expectIdentical(Gen, Ref);
  EXPECT_EQ(Gen.CoreStats.size(), 1u);
  EXPECT_TRUE(Ref.CoreStats.empty())
      << "the reference engine predates per-core stats";
}

TEST(KwaySimTest, TwoCoreByteIdentityDependent) {
  auto Spt = compileOrDie(DependentSrc);
  auto Loops = sptPrepare(*Spt);
  const SptSimResult Gen = runCores(*Spt, Loops, 4000, 2);
  const SptSimResult Ref = runReference(*Spt, Loops, 4000);
  expectIdentical(Gen, Ref);
}

TEST(KwaySimTest, TwoCoreByteIdentityRng) {
  auto Spt = compileOrDie(RngSrc);
  auto Loops = sptPrepare(*Spt, /*PreForkFraction=*/0.6);
  const SptSimResult Gen = runCores(*Spt, Loops, 500, 2);
  const SptSimResult Ref = runReference(*Spt, Loops, 500);
  expectIdentical(Gen, Ref);
}

//===----------------------------------------------------------------------===//
// Wider machines: architectural equality and commit-order accounting
//===----------------------------------------------------------------------===//

TEST(KwaySimTest, WideMachinesPreserveArchitecturalState) {
  for (const char *Src : {IndependentSrc, DependentSrc}) {
    auto Base = compileOrDie(Src);
    auto Spt = compileOrDie(Src);
    auto Loops = sptPrepare(*Spt);
    const SeqSimResult Seq =
        runSequential(*Base, "f", {Value::ofInt(2000)});
    for (uint32_t Cores : {1u, 4u, 8u}) {
      const SptSimResult R = runCores(*Spt, Loops, 2000, Cores);
      EXPECT_EQ(R.Result.I, Seq.Result.I) << "cores=" << Cores;
      EXPECT_EQ(R.Output, Seq.Output) << "cores=" << Cores;
      EXPECT_EQ(R.MemoryHash, Seq.MemoryHash) << "cores=" << Cores;
    }
  }
}

TEST(KwaySimTest, CommitAccountingMatchesJoinsAtEightCores) {
  auto Spt = compileOrDie(IndependentSrc);
  auto Loops = sptPrepare(*Spt);
  const SptSimResult R = runCores(*Spt, Loops, 3000, 8);
  ASSERT_EQ(R.CoreStats.size(), 7u);
  uint64_t Commits = 0, Forks = 0;
  for (size_t I = 0; I != R.CoreStats.size(); ++I) {
    Commits += R.CoreStats[I].Commits;
    Forks += R.CoreStats[I].Forks;
    // In-order chains: a deeper slot can only be armed (or committed)
    // after every shallower slot was, so totals are non-increasing.
    if (I > 0) {
      EXPECT_LE(R.CoreStats[I].Forks, R.CoreStats[I - 1].Forks)
          << "slot " << I;
      EXPECT_LE(R.CoreStats[I].Commits, R.CoreStats[I - 1].Commits)
          << "slot " << I;
    }
    EXPECT_LE(R.CoreStats[I].Commits + R.CoreStats[I].Squashes,
              R.CoreStats[I].Forks)
        << "slot " << I;
  }
  EXPECT_EQ(Commits, sumJoins(R));
  EXPECT_EQ(Forks, sumForks(R));
  EXPECT_GT(R.CoreStats[0].Commits, 100u);
}

TEST(KwaySimTest, ForcedSquashesCutTheChain) {
  auto Base = compileOrDie(IndependentSrc);
  auto Spt = compileOrDie(IndependentSrc);
  auto Loops = sptPrepare(*Spt);
  FaultInjectorOptions FO;
  FO.Seed = 0xfau;
  FO.ForcedSquashRate = 1.0;
  FaultInjector FI(FO);
  const SptSimResult R = runCores(*Spt, Loops, 1200, 4, &FI);
  ASSERT_EQ(R.CoreStats.size(), 3u);
  uint64_t Commits = 0, Squashes = 0;
  for (const SptCoreStats &S : R.CoreStats) {
    Commits += S.Commits;
    Squashes += S.Squashes;
  }
  EXPECT_EQ(Commits, 0u) << "every speculative thread is force-squashed";
  EXPECT_GT(Squashes, 0u);
  // Architectural state still comes from the main core's execution.
  const RunOutcome Want = runFunction(*Base, "f", {Value::ofInt(1200)});
  EXPECT_EQ(R.Result.I, Want.Result.I);
  EXPECT_EQ(R.Output, Want.Output);
}

TEST(KwaySimTest, RepeatedRunsLeaveNoBufferResidue) {
  auto Spt = compileOrDie(IndependentSrc);
  auto Loops = sptPrepare(*Spt);
  const SptSimResult First = runCores(*Spt, Loops, 1500, 4);
  const SptSimResult Second = runCores(*Spt, Loops, 1500, 4);
  expectIdentical(First, Second);
  ASSERT_EQ(First.CoreStats.size(), Second.CoreStats.size());
  for (size_t I = 0; I != First.CoreStats.size(); ++I) {
    EXPECT_EQ(First.CoreStats[I].Forks, Second.CoreStats[I].Forks);
    EXPECT_EQ(First.CoreStats[I].Commits, Second.CoreStats[I].Commits);
    EXPECT_EQ(First.CoreStats[I].Squashes, Second.CoreStats[I].Squashes);
  }
}

TEST(KwaySimTest, OneCoreMachineNeverForks) {
  auto Base = compileOrDie(IndependentSrc);
  auto Spt = compileOrDie(IndependentSrc);
  auto Loops = sptPrepare(*Spt);
  const SptSimResult R = runCores(*Spt, Loops, 1000, 1);
  EXPECT_TRUE(R.CoreStats.empty());
  EXPECT_EQ(sumForks(R), 0u);
  const RunOutcome Want = runFunction(*Base, "f", {Value::ofInt(1000)});
  EXPECT_EQ(R.Result.I, Want.Result.I);
}

TEST(KwaySimTest, MoreCoresOverlapMoreOnIndependentWork) {
  auto Spt = compileOrDie(IndependentSrc);
  auto Loops = sptPrepare(*Spt);
  const SptSimResult Two = runCores(*Spt, Loops, 3000, 2);
  const SptSimResult Four = runCores(*Spt, Loops, 3000, 4);
  EXPECT_LE(Four.Subticks, Two.Subticks)
      << "independent iterations must not slow down with more cores";
  EXPECT_EQ(Four.Result.I, Two.Result.I);
  EXPECT_EQ(Four.MemoryHash, Two.MemoryHash);
}

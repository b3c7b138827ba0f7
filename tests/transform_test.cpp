//===- tests/transform_test.cpp - SPT transformation tests --------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The central property: the SPT transformation preserves sequential
// semantics exactly (SPT_FORK/SPT_KILL are no-ops outside the simulator).
// Each scenario runs the original and the transformed program on the same
// inputs and compares return values and printed output.
//
//===----------------------------------------------------------------------===//

#include "transform/Cleanup.h"
#include "transform/SptTransform.h"
#include "transform/Unroll.h"

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "cost/CostModel.h"
#include "interp/Interp.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "lang/Frontend.h"
#include "partition/Partition.h"

#include <gtest/gtest.h>

using namespace spt;

namespace {

/// Applies the optimal-partition SPT transformation to loop \p LoopIdx
/// (by LoopNest id) of \p Fn. Returns the transform result; the module is
/// modified in place.
SptTransformResult transformLoop(Module &M, const std::string &Fn,
                                 uint32_t LoopIdx,
                                 double PreForkFraction = 0.34) {
  Function *F = M.findFunction(Fn);
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  EXPECT_LT(LoopIdx, Nest.numLoops());
  auto Probs = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
  FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);
  CallEffects Effects = CallEffects::compute(M);
  LoopDepGraph G = LoopDepGraph::build(M, *F, Cfg, *Nest.loop(LoopIdx), Freq,
                                       Effects);
  MisspecCostModel Model(G);
  PartitionOptions POpts;
  POpts.PreForkSizeFraction = PreForkFraction;
  PartitionResult P = PartitionSearch(G, Model, POpts).run();
  EXPECT_TRUE(P.Searched);
  return applySptTransform(M, *F, Cfg, *Nest.loop(LoopIdx), G, P.InPreFork,
                           /*LoopId=*/7);
}

/// Runs Fn in a fresh interpreter, returning (int result, output).
std::pair<int64_t, std::string> runInt(const Module &M, const std::string &Fn,
                                       std::vector<int64_t> Args) {
  std::vector<Value> Vals;
  for (int64_t A : Args)
    Vals.push_back(Value::ofInt(A));
  RunOutcome O = runFunction(M, Fn, Vals);
  return {O.Result.I, O.Output};
}

/// Compiles Src twice; transforms each loop of Fn in one copy; checks the
/// transformed module verifies and behaves identically on all arg sets.
void checkEquivalence(const std::string &Src, const std::string &Fn,
                      const std::vector<std::vector<int64_t>> &ArgSets,
                      double PreForkFraction = 0.34) {
  auto Original = compileOrDie(Src);
  auto Transformed = compileOrDie(Src);

  Function *F = Transformed->findFunction(Fn);
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  const size_t NumLoops = Nest.numLoops();
  ASSERT_GT(NumLoops, 0u);

  // Transform the outermost loops one at a time (re-analyzing in
  // between); nested loops inside a transformed region are skipped.
  unsigned Applied = 0;
  for (uint32_t LoopIdx = 0; LoopIdx != NumLoops; ++LoopIdx) {
    CfgInfo Cfg2 = CfgInfo::compute(*F);
    LoopNest Nest2 = LoopNest::compute(*F, Cfg2);
    // Find an untransformed loop (no SptFork in its blocks).
    const Loop *Candidate = nullptr;
    for (uint32_t I = 0; I != Nest2.numLoops(); ++I) {
      const Loop *L = Nest2.loop(I);
      bool HasFork = false;
      for (BlockId B : L->Blocks)
        for (const Instr &In : F->block(B)->Instrs)
          if (In.Op == Opcode::SptFork || In.Op == Opcode::SptKill)
            HasFork = true;
      if (!HasFork && L->Depth == 1) {
        Candidate = L;
        break;
      }
    }
    if (!Candidate)
      break;
    auto Probs = CfgProbabilities::staticHeuristic(*F, Cfg2, Nest2);
    FreqInfo Freq = FreqInfo::compute(*F, Cfg2, Nest2, Probs);
    CallEffects Effects = CallEffects::compute(*Transformed);
    LoopDepGraph G = LoopDepGraph::build(*Transformed, *F, Cfg2, *Candidate,
                                         Freq, Effects);
    MisspecCostModel Model(G);
    PartitionOptions POpts;
    POpts.PreForkSizeFraction = PreForkFraction;
    PartitionResult P = PartitionSearch(G, Model, POpts).run();
    if (!P.Searched)
      continue;
    SptTransformResult R =
        applySptTransform(*Transformed, *F, Cfg2, *Candidate, G, P.InPreFork,
                          static_cast<int64_t>(LoopIdx));
    if (!R.Ok)
      continue; // Untransformable partitions leave the function intact.
    ++Applied;
    ASSERT_EQ(verifyFunction(*Transformed, *F), "")
        << functionToString(*Transformed, *F);
  }
  EXPECT_GT(Applied, 0u) << "no loop was transformed";
  cleanupFunction(*F);
  ASSERT_EQ(verifyFunction(*Transformed, *F), "");

  for (const auto &Args : ArgSets) {
    auto [WantRes, WantOut] = runInt(*Original, Fn, Args);
    auto [GotRes, GotOut] = runInt(*Transformed, Fn, Args);
    EXPECT_EQ(GotRes, WantRes) << "args[0]="
                               << (Args.empty() ? 0 : Args[0]);
    EXPECT_EQ(GotOut, WantOut);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Structure of the transformed loop
//===----------------------------------------------------------------------===//

TEST(SptTransformTest, ProducesForkAndKill) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int s; int i;\n"
                        "  for (i = 0; i < n; i = i + 1) s = s + i * i;\n"
                        "  return s;\n"
                        "}\n");
  // A tiny body needs a generous pre-fork threshold (the real pipeline
  // unrolls such loops first; see the driver tests).
  SptTransformResult R = transformLoop(*M, "f", 0, /*PreForkFraction=*/0.6);
  ASSERT_TRUE(R.Ok) << R.Error;
  Function *F = M->findFunction("f");
  EXPECT_EQ(verifyFunction(*M, *F), "");

  unsigned Forks = 0, Kills = 0;
  for (const auto &BB : *F)
    for (const Instr &I : BB->Instrs) {
      if (I.Op == Opcode::SptFork) {
        ++Forks;
        EXPECT_EQ(I.IntImm, 7);
      }
      if (I.Op == Opcode::SptKill)
        ++Kills;
    }
  EXPECT_EQ(Forks, 1u);
  EXPECT_GE(Kills, 1u);
  EXPECT_GT(R.NumMovedStmts, 0u);
  EXPECT_GE(R.NumCarriedRegs, 1u); // The induction variable carries.
}

TEST(SptTransformTest, Figure2ShapeInductionMovedBodyStays) {
  // The paper's Figure 2: the induction update moves to the pre-fork
  // region; the accumulation work remains speculative (post-fork).
  auto M = compileOrDie("fp error[64]; fp p[64];\n"
                        "fp f(int n) {\n"
                        "  fp cost; int i; int j;\n"
                        "  for (i = 0; i < n; i = i + 1) {\n"
                        "    fp cost0;\n"
                        "    for (j = 0; j < i; j = j + 1)\n"
                        "      cost0 = cost0 + fabs(error[j] - p[j]);\n"
                        "    cost = cost + cost0;\n"
                        "  }\n"
                        "  return cost;\n"
                        "}\n");
  Function *F = M->findFunction("f");
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  uint32_t OuterIdx = ~0u;
  for (uint32_t I = 0; I != Nest.numLoops(); ++I)
    if (Nest.loop(I)->Depth == 1)
      OuterIdx = I;
  ASSERT_NE(OuterIdx, ~0u);
  SptTransformResult R = transformLoop(*M, "f", OuterIdx);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(verifyFunction(*M, *F), "");
  // The fork block exists and jumps into the post-fork region.
  const BasicBlock *FK = F->block(R.ForkBlock);
  EXPECT_EQ(FK->Instrs[0].Op, Opcode::SptFork);
  EXPECT_EQ(FK->Succs[0], R.PostForkEntry);
  // The inner loop's accumulation (fadd on cost0) stays post-fork: the
  // pre-fork region must not contain any FAdd.
  bool PreForkHasFAdd = false;
  for (const auto &BB : *F) {
    if (BB->label().rfind("spt.pre.", 0) != 0)
      continue;
    for (const Instr &I : BB->Instrs)
      if (I.Op == Opcode::FAdd)
        PreForkHasFAdd = true;
  }
  EXPECT_FALSE(PreForkHasFAdd);
}

//===----------------------------------------------------------------------===//
// Sequential equivalence across loop shapes
//===----------------------------------------------------------------------===//

TEST(SptTransformTest, EquivalenceSimpleAccumulator) {
  checkEquivalence("int f(int n) {\n"
                   "  int s; int i;\n"
                   "  for (i = 0; i < n; i = i + 1) s = s + i * i;\n"
                   "  return s;\n"
                   "}\n",
                   "f", {{0}, {1}, {2}, {7}, {100}});
}

TEST(SptTransformTest, EquivalenceMemoryRecurrence) {
  checkEquivalence("int a[256];\n"
                   "int f(int n) {\n"
                   "  int i;\n"
                   "  a[0] = 1;\n"
                   "  for (i = 1; i < n; i = i + 1) a[i] = a[i - 1] + i;\n"
                   "  return a[n - 1];\n"
                   "}\n",
                   "f", {{2}, {5}, {100}});
}

TEST(SptTransformTest, EquivalenceBranchyBody) {
  checkEquivalence("int f(int n) {\n"
                   "  int s; int i;\n"
                   "  for (i = 0; i < n; i = i + 1) {\n"
                   "    if (i % 3 == 0) s = s + i;\n"
                   "    else s = s - 1;\n"
                   "  }\n"
                   "  return s;\n"
                   "}\n",
                   "f", {{0}, {1}, {10}, {31}});
}

TEST(SptTransformTest, EquivalenceWhileLoop) {
  checkEquivalence("int f(int n) {\n"
                   "  int s;\n"
                   "  while (n > 0) {\n"
                   "    s = s + n * n;\n"
                   "    n = n - 2;\n"
                   "  }\n"
                   "  return s;\n"
                   "}\n",
                   "f", {{0}, {1}, {9}, {40}});
}

TEST(SptTransformTest, EquivalenceEarlyBreak) {
  checkEquivalence("int a[128];\n"
                   "int f(int n, int key) {\n"
                   "  int i; int found;\n"
                   "  for (i = 0; i < 128; i = i + 1) a[i] = i * 7 % 50;\n"
                   "  found = 0 - 1;\n"
                   "  for (i = 0; i < n; i = i + 1) {\n"
                   "    if (a[i] == key) { found = i; break; }\n"
                   "  }\n"
                   "  return found;\n"
                   "}\n",
                   "f", {{128, 21}, {128, 999}, {5, 28}, {0, 0}});
}

TEST(SptTransformTest, EquivalenceNestedLoops) {
  checkEquivalence("fp error[64]; fp p[64];\n"
                   "int f(int n) {\n"
                   "  fp cost; int i; int j;\n"
                   "  for (i = 0; i < 64; i = i + 1) {\n"
                   "    error[i] = itof(i * 3 % 17);\n"
                   "    p[i] = itof(i % 5);\n"
                   "  }\n"
                   "  cost = 0.0;\n"
                   "  for (i = 0; i < n; i = i + 1) {\n"
                   "    fp cost0;\n"
                   "    for (j = 0; j < i; j = j + 1)\n"
                   "      cost0 = cost0 + fabs(error[j] - p[j]);\n"
                   "    cost = cost + cost0;\n"
                   "  }\n"
                   "  return ftoi(cost * 1000.0);\n"
                   "}\n",
                   "f", {{0}, {1}, {2}, {32}, {64}});
}

TEST(SptTransformTest, EquivalenceLiveOutInduction) {
  // The induction value is live out of the loop; the kill-block copy must
  // restore the correct exit value.
  checkEquivalence("int f(int n) {\n"
                   "  int i; int s;\n"
                   "  for (i = 0; i < n; i = i + 3) s = s + 1;\n"
                   "  return i * 1000 + s;\n"
                   "}\n",
                   "f", {{0}, {1}, {2}, {3}, {10}, {99}});
}

TEST(SptTransformTest, EquivalenceWithCalls) {
  checkEquivalence("int g[8];\n"
                   "int helper(int x) { g[x % 8] = g[x % 8] + 1; return x / 2; }\n"
                   "int f(int n) {\n"
                   "  int s; int i;\n"
                   "  for (i = 0; i < n; i = i + 1) s = s + helper(i);\n"
                   "  return s * 100 + g[3];\n"
                   "}\n",
                   "f", {{0}, {5}, {40}});
}

TEST(SptTransformTest, EquivalenceRngLoop) {
  checkEquivalence("int f(int n) {\n"
                   "  int s; int i;\n"
                   "  for (i = 0; i < n; i = i + 1) s = s + rnd(10);\n"
                   "  return s;\n"
                   "}\n",
                   "f", {{0}, {3}, {50}});
}

TEST(SptTransformTest, EquivalenceConditionalUpdate) {
  // A carried variable updated under a branch: the moved definition set
  // includes the replicated branch (paper Figure 12 shape).
  checkEquivalence("int f(int n) {\n"
                   "  int s; int i; int step;\n"
                   "  step = 1;\n"
                   "  for (i = 0; i < n; i = i + step) {\n"
                   "    if (i > 20) step = 2;\n"
                   "    s = s + i;\n"
                   "  }\n"
                   "  return s;\n"
                   "}\n",
                   "f", {{0}, {10}, {30}, {100}});
}

//===----------------------------------------------------------------------===//
// Unrolling
//===----------------------------------------------------------------------===//

TEST(UnrollTest, CountedLoopDetection) {
  auto M = compileOrDie("int a[10];\n"
                        "int f(int n) {\n"
                        "  int s; int i;\n"
                        "  for (i = 0; i < n; i = i + 1) s = s + i;\n"
                        "  while (s > 10) s = s / 2;\n"
                        "  return s;\n"
                        "}\n");
  Function *F = M->findFunction("f");
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  ASSERT_EQ(Nest.numLoops(), 2u);
  int Counted = 0, NonCounted = 0;
  for (uint32_t I = 0; I != 2; ++I)
    (isCountedLoop(*F, *Nest.loop(I)) ? Counted : NonCounted) += 1;
  EXPECT_EQ(Counted, 1);
  EXPECT_EQ(NonCounted, 1); // s = s/2 is not an add-recurrence.
}

TEST(UnrollTest, PreservesSemantics) {
  for (unsigned Factor : {2u, 3u, 4u}) {
    auto Original = compileOrDie("int f(int n) {\n"
                                 "  int s; int i;\n"
                                 "  for (i = 0; i < n; i = i + 1)\n"
                                 "    s = s + i * 3 - 1;\n"
                                 "  return s;\n"
                                 "}\n");
    auto Unrolled = compileOrDie("int f(int n) {\n"
                                 "  int s; int i;\n"
                                 "  for (i = 0; i < n; i = i + 1)\n"
                                 "    s = s + i * 3 - 1;\n"
                                 "  return s;\n"
                                 "}\n");
    Function *F = Unrolled->findFunction("f");
    CfgInfo Cfg = CfgInfo::compute(*F);
    LoopNest Nest = LoopNest::compute(*F, Cfg);
    ASSERT_EQ(Nest.numLoops(), 1u);
    UnrollResult R = unrollLoop(*F, *Nest.loop(0), Factor);
    ASSERT_TRUE(R.Ok) << R.Error;
    ASSERT_EQ(verifyFunction(*Unrolled, *F), "");
    for (int64_t N : {0, 1, 2, 3, 5, 8, 13, 100}) {
      auto [WantRes, WantOut] = std::pair<int64_t, std::string>();
      (void)WantRes;
      (void)WantOut;
      RunOutcome A = runFunction(*Original, "f", {Value::ofInt(N)});
      RunOutcome B = runFunction(*Unrolled, "f", {Value::ofInt(N)});
      EXPECT_EQ(A.Result.I, B.Result.I) << "factor " << Factor << " n " << N;
    }
  }
}

TEST(UnrollTest, UnrollsWhileLoopToo) {
  auto Original = compileOrDie("int f(int n) {\n"
                               "  int s;\n"
                               "  while (n > 1) { s = s + n; n = n / 2; }\n"
                               "  return s;\n"
                               "}\n");
  auto Unrolled = compileOrDie("int f(int n) {\n"
                               "  int s;\n"
                               "  while (n > 1) { s = s + n; n = n / 2; }\n"
                               "  return s;\n"
                               "}\n");
  Function *F = Unrolled->findFunction("f");
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  UnrollResult R = unrollLoop(*F, *Nest.loop(0), 2);
  ASSERT_TRUE(R.Ok);
  ASSERT_EQ(verifyFunction(*Unrolled, *F), "");
  for (int64_t N : {0, 1, 2, 7, 1000}) {
    RunOutcome A = runFunction(*Original, "f", {Value::ofInt(N)});
    RunOutcome B = runFunction(*Unrolled, "f", {Value::ofInt(N)});
    EXPECT_EQ(A.Result.I, B.Result.I);
  }
}

TEST(UnrollTest, GrowsBodySize) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int s; int i;\n"
                        "  for (i = 0; i < n; i = i + 1) s = s + i;\n"
                        "  return s;\n"
                        "}\n");
  Function *F = M->findFunction("f");
  const size_t Before = F->countInstrs();
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  ASSERT_TRUE(unrollLoop(*F, *Nest.loop(0), 4).Ok);
  EXPECT_GT(F->countInstrs(), Before * 2);
  // After re-analysis the loop body contains the clones.
  CfgInfo Cfg2 = CfgInfo::compute(*F);
  LoopNest Nest2 = LoopNest::compute(*F, Cfg2);
  ASSERT_GE(Nest2.numLoops(), 1u);
}

//===----------------------------------------------------------------------===//
// Cleanup
//===----------------------------------------------------------------------===//

TEST(CleanupTest, ThreadsJumpChainsAndKeepsBehaviour) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int s; int i;\n"
                        "  for (i = 0; i < n; i = i + 1) {\n"
                        "    if (i % 2 == 0) s = s + 1;\n"
                        "  }\n"
                        "  return s;\n"
                        "}\n");
  Function *F = M->findFunction("f");
  const int64_t Want = runFunction(*M, "f", {Value::ofInt(9)}).Result.I;
  transformLoop(*M, "f", 0);
  CleanupStats Stats = cleanupFunction(*F);
  EXPECT_EQ(verifyFunction(*M, *F), "");
  EXPECT_EQ(runFunction(*M, "f", {Value::ofInt(9)}).Result.I, Want);
  EXPECT_GT(Stats.ThreadedEdges + Stats.ClearedBlocks + Stats.RemovedCopies,
            0u);
}

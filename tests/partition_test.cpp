//===- tests/partition_test.cpp - Optimal partition search tests -------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "partition/Partition.h"

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "cost/CostModel.h"
#include "lang/Frontend.h"
#include "testing/ReferencePlanner.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace spt;

namespace {

enum PaperStmt : uint32_t { A = 0, B, C, D, E, F };

/// The paper's Figure 5/6 graph (see cost_test.cpp for derivation).
LoopDepGraph paperGraph() {
  std::vector<LoopStmt> Stmts(6);
  for (auto &S : Stmts) {
    S.IterFreq = 1.0;
    S.Weight = 1.0;
  }
  std::vector<DepEdge> Edges = {
      {D, A, DepKind::FlowReg, true, 0.2},
      {E, B, DepKind::FlowReg, true, 0.1},
      {F, C, DepKind::FlowMem, true, 0.2},
      {B, C, DepKind::FlowReg, false, 0.5},
      {C, E, DepKind::FlowReg, false, 1.0},
      {D, E, DepKind::FlowReg, false, 1.0},
  };
  return LoopDepGraph::forSynthetic(std::move(Stmts), std::move(Edges));
}

} // namespace

TEST(PartitionTest, VcDepGraphMatchesPaperFigure7) {
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  PartitionSearch Search(G, Model);
  // Three VC nodes: D, E, F; E depends on D.
  EXPECT_EQ(Search.numVcNodes(), 3u);
}

TEST(PartitionTest, SearchSpaceMatchesPaperFigure8) {
  // Figure 8: pre-fork regions {}, {D}, {F}, {D,E}, {D,F}, {D,E,F} — six
  // search nodes when nothing prunes.
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  PartitionOptions Opts;
  Opts.PreForkSizeFraction = 1.0; // Effectively no size threshold.
  Opts.EnableSizePrune = false;
  Opts.EnableLowerBoundPrune = false;
  PartitionSearch Search(G, Model, Opts);
  PartitionResult R = Search.run();
  EXPECT_TRUE(R.Searched);
  EXPECT_EQ(R.NodesVisited, 6u);
}

TEST(PartitionTest, OptimalIsAllCandidatesWhenSizeAllows) {
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  PartitionOptions Opts;
  Opts.PreForkSizeFraction = 1.0;
  PartitionSearch Search(G, Model, Opts);
  PartitionResult R = Search.run();
  ASSERT_TRUE(R.Searched);
  EXPECT_NEAR(R.Cost, 0.0, 1e-12);
  const std::vector<uint32_t> Expected = {D, E, F};
  EXPECT_EQ(R.ChosenVcs, Expected);
  // Closure of E pulls in B, C and D: pre-fork = {B,C,D,E,F}.
  EXPECT_EQ(R.InPreFork[A], 0);
  EXPECT_EQ(R.InPreFork[B], 1);
  EXPECT_EQ(R.InPreFork[C], 1);
  EXPECT_EQ(R.InPreFork[D], 1);
  EXPECT_EQ(R.InPreFork[E], 1);
  EXPECT_EQ(R.InPreFork[F], 1);
  EXPECT_NEAR(R.PreForkWeight, 5.0, 1e-12);
}

TEST(PartitionTest, SizeThresholdPrunesLikePaperFigure9) {
  // With a threshold below {D,E,F}'s closure weight (5), the searcher must
  // settle for {D,F} (weight 2, cost 0.2).
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  PartitionOptions Opts;
  Opts.PreForkSizeFraction = 0.5; // Threshold = 3 of body weight 6.
  PartitionSearch Search(G, Model, Opts);
  PartitionResult R = Search.run();
  ASSERT_TRUE(R.Searched);
  EXPECT_GT(R.SizePrunes, 0u);
  const std::vector<uint32_t> Expected = {D, F};
  EXPECT_EQ(R.ChosenVcs, Expected);
  EXPECT_NEAR(R.Cost, 0.2, 1e-9);
  EXPECT_NEAR(R.PreForkWeight, 2.0, 1e-12);
}

TEST(PartitionTest, LowerBoundPruneKeepsOptimum) {
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);

  PartitionOptions Full;
  Full.PreForkSizeFraction = 0.5;
  Full.EnableLowerBoundPrune = false;
  PartitionResult RFull = PartitionSearch(G, Model, Full).run();

  PartitionOptions Pruned = Full;
  Pruned.EnableLowerBoundPrune = true;
  PartitionResult RPruned = PartitionSearch(G, Model, Pruned).run();

  EXPECT_NEAR(RFull.Cost, RPruned.Cost, 1e-12);
  EXPECT_EQ(RFull.ChosenVcs, RPruned.ChosenVcs);
  EXPECT_LE(RPruned.NodesVisited, RFull.NodesVisited);
}

TEST(PartitionTest, SkipsLoopsWithTooManyCandidates) {
  // Build a synthetic graph with 40 independent violation candidates.
  std::vector<LoopStmt> Stmts(80);
  std::vector<DepEdge> Edges;
  for (uint32_t I = 0; I != 40; ++I) {
    Stmts[I].IterFreq = Stmts[40 + I].IterFreq = 1.0;
    Stmts[I].Weight = Stmts[40 + I].Weight = 1.0;
    Edges.push_back(DepEdge{I, 40 + I, DepKind::FlowReg, true, 0.5});
  }
  LoopDepGraph G = LoopDepGraph::forSynthetic(Stmts, Edges);
  MisspecCostModel Model(G);
  PartitionOptions Opts;
  Opts.MaxViolationCandidates = 30;
  PartitionResult R = PartitionSearch(G, Model, Opts).run();
  EXPECT_FALSE(R.Searched);
  EXPECT_EQ(R.NumViolationCandidates, 40u);
}

TEST(PartitionTest, UnmovableCandidateStaysInPostFork) {
  // VC 0 is unmovable (e.g. an impure call); the search may still move
  // VC 1.
  std::vector<LoopStmt> Stmts(3);
  for (auto &S : Stmts) {
    S.IterFreq = 1.0;
    S.Weight = 1.0;
  }
  Stmts[0].Movable = false;
  std::vector<DepEdge> Edges = {
      {0, 2, DepKind::FlowReg, true, 0.4},
      {1, 2, DepKind::FlowReg, true, 0.4},
  };
  LoopDepGraph G = LoopDepGraph::forSynthetic(Stmts, Edges);
  MisspecCostModel Model(G);
  PartitionOptions Opts;
  Opts.PreForkSizeFraction = 1.0;
  PartitionResult R = PartitionSearch(G, Model, Opts).run();
  ASSERT_TRUE(R.Searched);
  const std::vector<uint32_t> Expected = {1};
  EXPECT_EQ(R.ChosenVcs, Expected);
  EXPECT_EQ(R.InPreFork[0], 0);
  // Residual cost: v(2) = 0.4 from the unmovable candidate.
  EXPECT_NEAR(R.Cost, 0.4, 1e-9);
}

TEST(PartitionTest, CyclicCandidatesMoveTogether) {
  // Two VCs in an intra-iteration dependence cycle condense to one node.
  std::vector<LoopStmt> Stmts(4);
  for (auto &S : Stmts) {
    S.IterFreq = 1.0;
    S.Weight = 1.0;
  }
  std::vector<DepEdge> Edges = {
      {0, 2, DepKind::FlowReg, true, 0.5},
      {1, 3, DepKind::FlowReg, true, 0.5},
      {0, 1, DepKind::FlowReg, false, 1.0},
      {1, 0, DepKind::FlowReg, false, 1.0},
  };
  LoopDepGraph G = LoopDepGraph::forSynthetic(Stmts, Edges);
  MisspecCostModel Model(G);
  PartitionOptions Opts;
  Opts.PreForkSizeFraction = 1.0;
  PartitionSearch Search(G, Model, Opts);
  EXPECT_EQ(Search.numVcNodes(), 1u);
  PartitionResult R = Search.run();
  const std::vector<uint32_t> Expected = {0, 1};
  EXPECT_EQ(R.ChosenVcs, Expected);
  EXPECT_NEAR(R.Cost, 0.0, 1e-12);
}

TEST(PartitionBudgetTest, NodeBudgetTruncationIsReported) {
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  PartitionOptions Opts;
  Opts.PreForkSizeFraction = 1.0;
  Opts.EnableSizePrune = false;
  Opts.EnableLowerBoundPrune = false;

  PartitionResult Full = PartitionSearch(G, Model, Opts).run();
  ASSERT_TRUE(Full.Searched);
  EXPECT_FALSE(Full.BudgetExhausted);
  ASSERT_EQ(Full.NodesVisited, 6u);

  Opts.MaxSearchNodes = 2; // Truncate the six-node space.
  PartitionResult R = PartitionSearch(G, Model, Opts).run();
  EXPECT_TRUE(R.Searched);
  EXPECT_TRUE(R.BudgetExhausted) << "truncation must not be silent";
  EXPECT_LT(R.NodesVisited, Full.NodesVisited);
  // The best incumbent is kept: a well-formed partition no worse than
  // not speculating at all, not a poisoned result.
  EXPECT_EQ(R.InPreFork.size(), G.size());
  EXPECT_LE(R.Cost, Model.emptyPartitionCost() + 1e-12);
}

TEST(PartitionBudgetTest, WallClockDeadlineTruncationIsReported) {
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  PartitionOptions Opts;
  Opts.PreForkSizeFraction = 1.0;
  Opts.EnableSizePrune = false;
  Opts.EnableLowerBoundPrune = false;
  Opts.MaxSearchSeconds = 1e-12; // Expired by the first deadline check.
  PartitionResult R = PartitionSearch(G, Model, Opts).run();
  EXPECT_TRUE(R.Searched);
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_LT(R.NodesVisited, 6u);
  EXPECT_EQ(R.InPreFork.size(), G.size());
  EXPECT_LE(R.Cost, Model.emptyPartitionCost() + 1e-12);
}

TEST(PartitionTest, RealLoopMovesInductionVariable) {
  // The Figure 2 pattern: an accumulator + induction loop. The optimal
  // partition moves the induction update (and whatever it needs) into the
  // pre-fork region and leaves the heavy body speculative.
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
  const Function *F = M->findFunction("f");
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  auto Probs = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
  FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);
  CallEffects Effects = CallEffects::compute(*M);

  // Find the outer loop.
  const Loop *Outer = nullptr;
  for (uint32_t I = 0; I != Nest.numLoops(); ++I)
    if (Nest.loop(I)->Depth == 1)
      Outer = Nest.loop(I);
  ASSERT_NE(Outer, nullptr);

  LoopDepGraph G =
      LoopDepGraph::build(*M, *F, Cfg, *Outer, Freq, Effects);
  MisspecCostModel Model(G);
  PartitionResult R = PartitionSearch(G, Model).run();
  ASSERT_TRUE(R.Searched);

  // The search must beat the empty partition.
  EXPECT_LT(R.Cost, Model.emptyPartitionCost() - 1e-9);
  EXPECT_FALSE(R.ChosenVcs.empty());
  // And the pre-fork region must stay within the size threshold.
  EXPECT_LE(R.PreForkWeight,
            0.34 * R.BodyWeight + 1e-9);
}

//===----------------------------------------------------------------------===//
// Equivalence with the reference search (testing/ReferencePlanner.h)
//===----------------------------------------------------------------------===//

namespace {

/// Runs the search and the reference search and requires bitwise
/// agreement on every observable: the cost (memcmp, not epsilon), the
/// chosen partition, and the visit/prune/eval counters that prove the
/// two walked the identical tree and took the identical prunes.
void expectStrategiesAgree(const LoopDepGraph &G, PartitionOptions Opts) {
  MisspecCostModel Model(G);
  PartitionSearch Search(G, Model, Opts);
  PartitionResult R[2];
  R[0] = referencePartitionSearch(Search, ReferenceCostModel(G), Opts);
  R[1] = Search.run();
  EXPECT_EQ(R[0].Searched, R[1].Searched);
  EXPECT_EQ(std::memcmp(&R[0].Cost, &R[1].Cost, sizeof(double)), 0)
      << R[0].Cost << " vs " << R[1].Cost;
  EXPECT_EQ(R[0].ChosenVcs, R[1].ChosenVcs);
  EXPECT_EQ(R[0].InPreFork, R[1].InPreFork);
  EXPECT_EQ(std::memcmp(&R[0].PreForkWeight, &R[1].PreForkWeight,
                        sizeof(double)),
            0);
  EXPECT_EQ(R[0].NodesVisited, R[1].NodesVisited);
  EXPECT_EQ(R[0].SizePrunes, R[1].SizePrunes);
  EXPECT_EQ(R[0].LowerBoundPrunes, R[1].LowerBoundPrunes);
  EXPECT_EQ(R[0].CostEvals, R[1].CostEvals);
  EXPECT_EQ(R[0].BudgetExhausted, R[1].BudgetExhausted);
}

} // namespace

TEST(PartitionEquivalenceTest, PaperGraphAllPruneCombinations) {
  LoopDepGraph G = paperGraph();
  for (int SizePrune = 0; SizePrune != 2; ++SizePrune)
    for (int LbPrune = 0; LbPrune != 2; ++LbPrune) {
      PartitionOptions Opts;
      Opts.EnableSizePrune = SizePrune != 0;
      Opts.EnableLowerBoundPrune = LbPrune != 0;
      expectStrategiesAgree(G, Opts);
      Opts.PreForkSizeFraction = 1.0; // No size pressure.
      expectStrategiesAgree(G, Opts);
    }
}

TEST(PartitionEquivalenceTest, ReplicatedStressGraph) {
  // The bench's phase-2 shape: pinned filler plus disjoint movable
  // copies; the search tree is the K-fold product of the original
  // loop's, driving deep commit/undo/probe sequences through the
  // incremental scratches.
  LoopDepGraph G = replicateAcyclic(paperGraph(), /*Filler=*/2, /*K=*/3);
  PartitionOptions Opts;
  Opts.MaxViolationCandidates = 1000;
  expectStrategiesAgree(G, Opts);
  Opts.PreForkSizeFraction = 1.0;
  expectStrategiesAgree(G, Opts);
}

TEST(PartitionEquivalenceTest, RealLoopsFromCompiledSource) {
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
  CallEffects Effects = CallEffects::compute(*M);
  const Function *F = M->findFunction("f");
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  auto Probs = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
  FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);
  int Checked = 0;
  for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI) {
    LoopDepGraph G = LoopDepGraph::build(*M, *F, Cfg, *Nest.loop(LI), Freq,
                                         Effects);
    if (G.violationCandidates().empty())
      continue;
    expectStrategiesAgree(G, PartitionOptions());
    // Cyclic cost graphs take the full-repropagation fallback; cover
    // the DAG-shadow replica of the same loop too.
    expectStrategiesAgree(replicateAcyclic(G, 1, 2), PartitionOptions());
    ++Checked;
  }
  EXPECT_GT(Checked, 0);
}

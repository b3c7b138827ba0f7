//===- tests/cost_test.cpp - Misspeculation cost model tests -----------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Includes a faithful reconstruction of the paper's worked example
// (Figures 5 and 6): six statements A..F, cross-iteration dependences
// D->A (0.2), E->B (0.1), F->C (0.2), intra dependences B->C (0.5),
// C->E (1.0) and D->E (1.0). With only D in the pre-fork region the paper
// computes v(A)=0, v(B)=0.1, v(C)=0.24, v(E)=0.24 and a total
// misspeculation cost of 0.58.
//
//===----------------------------------------------------------------------===//

#include "analysis/DepGraph.h"
#include "cost/CostModel.h"
#include "lang/Frontend.h"

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"

#include <gtest/gtest.h>

using namespace spt;

namespace {

enum PaperStmt : uint32_t { A = 0, B, C, D, E, F };

/// Builds the Figure 5/6 dependence graph.
LoopDepGraph paperGraph() {
  std::vector<LoopStmt> Stmts(6);
  for (auto &S : Stmts) {
    S.IterFreq = 1.0; // "no branch statement in the loop body"
    S.Weight = 1.0;   // "assuming all nodes have cost of one"
  }
  std::vector<DepEdge> Edges = {
      {D, A, DepKind::FlowReg, /*Cross=*/true, 0.2},
      {E, B, DepKind::FlowReg, /*Cross=*/true, 0.1},
      {F, C, DepKind::FlowMem, /*Cross=*/true, 0.2},
      {B, C, DepKind::FlowReg, /*Cross=*/false, 0.5},
      {C, E, DepKind::FlowReg, /*Cross=*/false, 1.0},
      {D, E, DepKind::FlowReg, /*Cross=*/false, 1.0},
  };
  return LoopDepGraph::forSynthetic(std::move(Stmts), std::move(Edges));
}

PartitionSet only(std::initializer_list<uint32_t> Picked, size_t N = 6) {
  PartitionSet P(N, 0);
  for (uint32_t I : Picked)
    P[I] = 1;
  return P;
}

} // namespace

TEST(CostModelTest, PaperExampleViolationCandidates) {
  LoopDepGraph G = paperGraph();
  const std::vector<uint32_t> Expected = {D, E, F};
  EXPECT_EQ(G.violationCandidates(), Expected);
}

TEST(CostModelTest, PaperExampleCostIs058) {
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  EXPECT_NEAR(Model.cost(only({D})), 0.58, 1e-9);
}

TEST(CostModelTest, PaperExampleReexecProbabilities) {
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  std::vector<double> V = Model.reexecProbabilities(only({D}));
  EXPECT_NEAR(V[A], 0.0, 1e-12);
  EXPECT_NEAR(V[B], 0.1, 1e-12);
  EXPECT_NEAR(V[C], 0.24, 1e-12);
  EXPECT_NEAR(V[E], 0.24, 1e-12);
  EXPECT_NEAR(V[D], 0.0, 1e-12);
  EXPECT_NEAR(V[F], 0.0, 1e-12);
}

TEST(CostModelTest, EmptyPartitionCost) {
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  // v(A)=0.2, v(B)=0.1, v(C)=1-(1-.05)(1-.2)=0.24, v(E)=0.24.
  EXPECT_NEAR(Model.emptyPartitionCost(), 0.78, 1e-9);
}

TEST(CostModelTest, CostIsMonotoneInPreForkSet) {
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  const double None = Model.cost(only({}));
  const double JustD = Model.cost(only({D}));
  const double DAndE = Model.cost(only({D, E}));
  const double DEF = Model.cost(only({D, E, F}));
  EXPECT_GE(None, JustD);
  EXPECT_GE(JustD, DAndE);
  EXPECT_GE(DAndE, DEF);
  EXPECT_NEAR(DEF, 0.0, 1e-12);
}

TEST(CostModelTest, MonotonicityPropertyExhaustive) {
  // Property: for every pair S ⊆ T of VC subsets, cost(T) <= cost(S).
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  const uint32_t Vcs[] = {D, E, F};
  for (uint32_t SMask = 0; SMask != 8; ++SMask) {
    for (uint32_t TMask = 0; TMask != 8; ++TMask) {
      if ((SMask & TMask) != SMask)
        continue; // S not a subset of T.
      PartitionSet S(6, 0), T(6, 0);
      for (int Bit = 0; Bit != 3; ++Bit) {
        if (SMask & (1u << Bit))
          S[Vcs[Bit]] = 1;
        if (TMask & (1u << Bit))
          T[Vcs[Bit]] = 1;
      }
      EXPECT_LE(Model.cost(T), Model.cost(S) + 1e-12)
          << "S=" << SMask << " T=" << TMask;
    }
  }
}

TEST(CostModelTest, ViolationProbabilityTracksFrequency) {
  std::vector<LoopStmt> Stmts(2);
  Stmts[0].IterFreq = 0.25; // Guarded statement.
  Stmts[0].Weight = 1.0;
  Stmts[1].IterFreq = 1.0;
  Stmts[1].Weight = 1.0;
  std::vector<DepEdge> Edges = {{0, 1, DepKind::FlowReg, true, 1.0}};
  LoopDepGraph G = LoopDepGraph::forSynthetic(Stmts, Edges);
  MisspecCostModel Model(G);
  EXPECT_NEAR(Model.violationProbability(0), 0.25, 1e-12);
  // Cost = v(1) * w * freq = (1.0 * 0.25) * 1 * 1.
  EXPECT_NEAR(Model.emptyPartitionCost(), 0.25, 1e-12);
}

TEST(CostModelTest, CyclicGraphConverges) {
  // Two statements re-executing each other (a cycle through an inner
  // loop), seeded by a cross dependence.
  std::vector<LoopStmt> Stmts(3);
  for (auto &S : Stmts) {
    S.IterFreq = 1.0;
    S.Weight = 1.0;
  }
  std::vector<DepEdge> Edges = {
      {0, 1, DepKind::FlowReg, true, 0.5},
      {1, 2, DepKind::FlowReg, false, 0.8},
      {2, 1, DepKind::FlowReg, false, 0.8},
  };
  LoopDepGraph G = LoopDepGraph::forSynthetic(Stmts, Edges);
  MisspecCostModel Model(G);
  EXPECT_TRUE(Model.hasCycles());
  const double Cost = Model.emptyPartitionCost();
  EXPECT_GT(Cost, 0.0);
  EXPECT_LT(Cost, 2.0 + 1e-12); // v <= 1 on both nodes.
  // Fixpoint: v1 = 1-(1-0.5)(1-0.8 v2), v2 = 0.8 v1.
  // v1 = 1 - 0.5(1-0.64 v1) => v1 = 0.5 + 0.32 v1 => v1 = 0.5/0.68.
  const double V1 = 0.5 / 0.68;
  EXPECT_NEAR(Cost, V1 + 0.8 * V1, 1e-6);
}

TEST(CostModelTest, ControlEdgesPropagate) {
  // A cross dep into a branch whose controlled statement re-executes too.
  std::vector<LoopStmt> Stmts(3);
  for (auto &S : Stmts) {
    S.IterFreq = 1.0;
    S.Weight = 1.0;
  }
  std::vector<DepEdge> Edges = {
      {0, 1, DepKind::FlowReg, true, 1.0},    // VC -> branch cond use.
      {1, 2, DepKind::Control, false, 0.5},   // branch controls stmt 2.
  };
  LoopDepGraph G = LoopDepGraph::forSynthetic(Stmts, Edges);
  MisspecCostModel Model(G);
  // v(1) = 1, v(2) = 0.5; cost = 1.5.
  EXPECT_NEAR(Model.emptyPartitionCost(), 1.5, 1e-9);
}

TEST(CostModelTest, RealLoopCostDropsWhenInductionMoved) {
  // The Figure 2 scenario: moving the induction update into the pre-fork
  // region eliminates most of the misspeculation cost.
  auto M = compileOrDie("int f(int n) {\n"
                        "  int s; int i;\n"
                        "  for (i = 0; i < n; i = i + 1) s = s + i * i;\n"
                        "  return s;\n"
                        "}\n");
  const Function *F = M->findFunction("f");
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  ASSERT_EQ(Nest.numLoops(), 1u);
  auto Probs = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
  FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);
  CallEffects Effects = CallEffects::compute(*M);
  LoopDepGraph G =
      LoopDepGraph::build(*M, *F, Cfg, *Nest.loop(0), Freq, Effects);
  MisspecCostModel Model(G);

  PartitionSet None(G.size(), 0);
  const double CostNone = Model.cost(None);
  EXPECT_GT(CostNone, 0.0);

  // Move every violation candidate (with its closure) to the pre-fork
  // region: cost must drop to zero.
  PartitionSet All(G.size(), 1);
  EXPECT_NEAR(Model.cost(All), 0.0, 1e-12);
}

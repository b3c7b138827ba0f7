//===- tests/analysis_test.cpp - CFG/loop/freq/depgraph tests ---------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "lang/Frontend.h"

#include <gtest/gtest.h>

using namespace spt;

namespace {

/// Compiles source and bundles the standard analyses for one function.
struct Analyzed {
  std::unique_ptr<Module> M;
  const Function *F = nullptr;
  CfgInfo Cfg;
  LoopNest Nest;
  CfgProbabilities Probs;
  FreqInfo Freq;
  CallEffects Effects;

  explicit Analyzed(const std::string &Src, const std::string &Fn = "f")
      : M(compileOrDie(Src)), F(M->findFunction(Fn)),
        Cfg(CfgInfo::compute(*F)), Nest(LoopNest::compute(*F, Cfg)),
        Probs(CfgProbabilities::staticHeuristic(*F, Cfg, Nest)),
        Freq(FreqInfo::compute(*F, Cfg, Nest, Probs)),
        Effects(CallEffects::compute(*M)) {}

  LoopDepGraph depGraph(uint32_t LoopId = 0,
                        DepGraphOptions Opts = DepGraphOptions()) const {
    return LoopDepGraph::build(*M, *F, Cfg, *Nest.loop(LoopId), Freq, Effects,
                               Opts);
  }
};

const char *SimpleLoopSrc = "int a[100];\n"
                            "int f(int n) {\n"
                            "  int s; int i;\n"
                            "  for (i = 0; i < n; i = i + 1) {\n"
                            "    s = s + a[i];\n"
                            "    a[i] = s;\n"
                            "  }\n"
                            "  return s;\n"
                            "}\n";

} // namespace

//===----------------------------------------------------------------------===//
// CfgInfo
//===----------------------------------------------------------------------===//

TEST(CfgTest, RpoStartsAtEntryAndCoversReachable) {
  Analyzed A(SimpleLoopSrc);
  ASSERT_FALSE(A.Cfg.rpo().empty());
  EXPECT_EQ(A.Cfg.rpo()[0], A.F->entry());
  for (BlockId B : A.Cfg.rpo())
    EXPECT_TRUE(A.Cfg.reachable(B));
}

TEST(CfgTest, EntryDominatesEverything) {
  Analyzed A(SimpleLoopSrc);
  for (BlockId B : A.Cfg.rpo())
    EXPECT_TRUE(A.Cfg.dominates(A.F->entry(), B));
}

TEST(CfgTest, LoopHeaderDominatesBody) {
  Analyzed A(SimpleLoopSrc);
  ASSERT_EQ(A.Nest.numLoops(), 1u);
  const Loop *L = A.Nest.loop(0);
  for (BlockId B : L->Blocks)
    EXPECT_TRUE(A.Cfg.dominates(L->Header, B));
}

TEST(CfgTest, PostdominanceOfJoinBlock) {
  Analyzed A("int f(int n) {\n"
             "  int x;\n"
             "  if (n > 0) x = 1; else x = 2;\n"
             "  return x;\n"
             "}\n");
  // The return block postdominates the entry; neither arm does.
  const BlockId Entry = A.F->entry();
  BlockId RetBlock = NoBlock;
  for (const auto &BB : *A.F)
    if (BB->hasTerminator() && BB->terminator().Op == Opcode::Ret)
      RetBlock = BB->id();
  ASSERT_NE(RetBlock, NoBlock);
  EXPECT_TRUE(A.Cfg.postdominates(RetBlock, Entry));
}

TEST(CfgTest, ControlDependenceOfBranchArms) {
  Analyzed A("int f(int n) {\n"
             "  int x;\n"
             "  if (n > 0) x = 1; else x = 2;\n"
             "  return x;\n"
             "}\n");
  // Both arms are control dependent on the entry branch; the return block
  // is not.
  const BlockId Entry = A.F->entry();
  int ArmsWithDep = 0;
  for (const auto &BB : *A.F) {
    const auto &Deps = A.Cfg.controlDeps(BB->id());
    const bool DependsOnEntry =
        std::any_of(Deps.begin(), Deps.end(),
                    [&](const CfgInfo::ControlDep &D) {
                      return D.Branch == Entry;
                    });
    if (DependsOnEntry)
      ++ArmsWithDep;
    if (BB->hasTerminator() && BB->terminator().Op == Opcode::Ret) {
      EXPECT_FALSE(DependsOnEntry);
    }
  }
  EXPECT_EQ(ArmsWithDep, 2);
}

//===----------------------------------------------------------------------===//
// LoopNest
//===----------------------------------------------------------------------===//

TEST(LoopTest, FindsSingleLoop) {
  Analyzed A(SimpleLoopSrc);
  ASSERT_EQ(A.Nest.numLoops(), 1u);
  const Loop *L = A.Nest.loop(0);
  EXPECT_EQ(L->Depth, 1u);
  EXPECT_FALSE(L->Exits.empty());
  EXPECT_FALSE(L->Latches.empty());
  EXPECT_EQ(L->Blocks[0], L->Header);
}

TEST(LoopTest, NestedLoopsHaveParentChild) {
  Analyzed A("int f(int n) {\n"
             "  int s; int i; int j;\n"
             "  for (i = 0; i < n; i = i + 1)\n"
             "    for (j = 0; j < i; j = j + 1)\n"
             "      s = s + j;\n"
             "  return s;\n"
             "}\n");
  ASSERT_EQ(A.Nest.numLoops(), 2u);
  const Loop *Outer = nullptr, *Inner = nullptr;
  for (uint32_t I = 0; I != 2; ++I)
    (A.Nest.loop(I)->Depth == 1 ? Outer : Inner) = A.Nest.loop(I);
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->Parent, Outer);
  EXPECT_EQ(Outer->Children.size(), 1u);
  EXPECT_TRUE(Outer->contains(Inner->Header));
  // innermostFirst puts the inner loop first.
  auto Order = A.Nest.innermostFirst();
  EXPECT_EQ(Order[0], Inner);
  EXPECT_EQ(Order[1], Outer);
  // Innermost map points inner-loop blocks at the inner loop.
  EXPECT_EQ(A.Nest.innermostFor(Inner->Header), Inner);
  EXPECT_EQ(A.Nest.innermostFor(Outer->Header), Outer);
}

TEST(LoopTest, WhileAndDoWhileDetected) {
  Analyzed A("int f(int n) {\n"
             "  int s;\n"
             "  while (n > 0) { s = s + n; n = n - 1; }\n"
             "  do { s = s + 1; n = n + 1; } while (n < 5);\n"
             "  return s;\n"
             "}\n");
  EXPECT_EQ(A.Nest.numLoops(), 2u);
}

//===----------------------------------------------------------------------===//
// Frequencies
//===----------------------------------------------------------------------===//

TEST(FreqTest, StaticHeuristicFavorsBackEdge) {
  Analyzed A(SimpleLoopSrc);
  const Loop *L = A.Nest.loop(0);
  const double Trip = A.Freq.avgTripCount(*L);
  EXPECT_GT(Trip, 5.0); // Back-edge bias implies a non-trivial trip count.
  EXPECT_LT(Trip, 60.0);
}

TEST(FreqTest, HeaderOncePerIteration) {
  Analyzed A(SimpleLoopSrc);
  const Loop *L = A.Nest.loop(0);
  EXPECT_NEAR(A.Freq.freqPerIteration(*L, L->Header), 1.0, 1e-9);
  // Blocks outside the loop have zero per-iteration frequency.
  EXPECT_DOUBLE_EQ(A.Freq.freqPerIteration(*L, A.F->entry()), 0.0);
}

TEST(FreqTest, InnerLoopMultipliesFrequency) {
  Analyzed A("int f(int n) {\n"
             "  int s; int i; int j;\n"
             "  for (i = 0; i < n; i = i + 1)\n"
             "    for (j = 0; j < n; j = j + 1)\n"
             "      s = s + j;\n"
             "  return s;\n"
             "}\n");
  const Loop *Outer = nullptr, *Inner = nullptr;
  for (uint32_t I = 0; I != 2; ++I)
    (A.Nest.loop(I)->Depth == 1 ? Outer : Inner) = A.Nest.loop(I);
  // The inner body runs many times per outer iteration.
  BlockId InnerBody = NoBlock;
  for (BlockId B : Inner->Blocks)
    if (B != Inner->Header)
      InnerBody = B;
  ASSERT_NE(InnerBody, NoBlock);
  EXPECT_GT(A.Freq.freqPerIteration(*Outer, InnerBody), 3.0);
}

TEST(FreqTest, ProfiledCountsOverrideHeuristic) {
  Analyzed A(SimpleLoopSrc);
  FunctionEdgeCounts Counts;
  Counts.resizeFor(*A.F);
  // Fabricate: every block ran 7 times, every edge taken 7 times except
  // conditional edges split 6/1.
  for (const auto &BB : *A.F) {
    Counts.Block[BB->id()] = 7;
    for (size_t S = 0; S != BB->Succs.size(); ++S)
      Counts.Edge[BB->id()][S] = BB->Succs.size() == 2 ? (S == 0 ? 6 : 1) : 7;
  }
  FreqInfo FI = FreqInfo::fromBlockCounts(*A.F, Counts);
  EXPECT_DOUBLE_EQ(FI.blockFreq(A.F->entry()), 7.0);
}

//===----------------------------------------------------------------------===//
// CallEffects
//===----------------------------------------------------------------------===//

TEST(CallEffectsTest, TransitiveWrites) {
  auto M = compileOrDie("int g1[4]; int g2[4];\n"
                        "void leaf() { g1[0] = 1; }\n"
                        "int mid() { leaf(); return g2[0]; }\n"
                        "void top() { mid(); }\n");
  CallEffects CE = CallEffects::compute(*M);
  const auto &Top = CE.effectsOf(*M, *M->findFunction("top"));
  EXPECT_TRUE(Top.Writes.count(M->arrayIdOf("g1")));
  EXPECT_TRUE(Top.Reads.count(M->arrayIdOf("g2")));
  EXPECT_FALSE(Top.pure());
}

TEST(CallEffectsTest, RndAndPrintAreImpure) {
  auto M = compileOrDie("int f() { return rnd(10); }\n"
                        "void g() { print_int(1); }\n"
                        "fp h(fp x) { return sqrt(x); }\n");
  CallEffects CE = CallEffects::compute(*M);
  EXPECT_FALSE(CE.effectsOf(*M, *M->findFunction("f")).pure());
  EXPECT_FALSE(CE.effectsOf(*M, *M->findFunction("g")).pure());
  EXPECT_TRUE(CE.effectsOf(*M, *M->findFunction("h")).pure());
  // rnd's class is both read and written (ordering matters).
  const auto &FEff = CE.effectsOf(*M, *M->findFunction("f"));
  EXPECT_TRUE(FEff.Reads.count(CE.rngClass()));
  EXPECT_TRUE(FEff.Writes.count(CE.rngClass()));
}

TEST(CallEffectsTest, RecursionConverges) {
  auto M = compileOrDie("int a[4];\n"
                        "int f(int n) { if (n <= 0) return a[0]; "
                        "a[0] = n; return f(n - 1); }\n");
  CallEffects CE = CallEffects::compute(*M);
  const auto &E = CE.effectsOf(*M, *M->findFunction("f"));
  EXPECT_TRUE(E.Reads.count(0u));
  EXPECT_TRUE(E.Writes.count(0u));
}

//===----------------------------------------------------------------------===//
// LoopDepGraph
//===----------------------------------------------------------------------===//

TEST(DepGraphTest, FindsCrossIterationScalarDeps) {
  Analyzed A(SimpleLoopSrc);
  LoopDepGraph G = A.depGraph();
  EXPECT_GT(G.size(), 5u);
  EXPECT_FALSE(G.violationCandidates().empty());

  // There must be a cross-iteration register flow edge (the accumulator
  // and induction variable) and a cross-iteration memory flow edge (the
  // store to a[] feeding next iteration's load under type-based aliasing).
  bool CrossReg = false, CrossMem = false;
  for (const DepEdge &E : G.edges()) {
    if (E.Cross && E.Kind == DepKind::FlowReg)
      CrossReg = true;
    if (E.Cross && E.Kind == DepKind::FlowMem)
      CrossMem = true;
  }
  EXPECT_TRUE(CrossReg);
  EXPECT_TRUE(CrossMem);
}

TEST(DepGraphTest, IntraEdgesRespectOrder) {
  Analyzed A(SimpleLoopSrc);
  LoopDepGraph G = A.depGraph();
  for (const DepEdge &E : G.edges()) {
    if (E.Cross || E.Kind == DepKind::Control)
      continue;
    EXPECT_TRUE(G.canPrecedeIntra(E.Src, E.Dst))
        << "intra edge must go forward";
  }
}

TEST(DepGraphTest, ProbabilitiesWithinUnitInterval) {
  Analyzed A(SimpleLoopSrc);
  LoopDepGraph G = A.depGraph();
  for (const DepEdge &E : G.edges()) {
    EXPECT_GE(E.Prob, 0.0);
    EXPECT_LE(E.Prob, 1.0);
  }
}

TEST(DepGraphTest, PureCallIsMovableImpureIsNot) {
  Analyzed A("int a[10];\n"
             "int f(int n) {\n"
             "  int s; int i; fp x;\n"
             "  for (i = 0; i < n; i = i + 1) {\n"
             "    x = sqrt(itof(i));\n"
             "    s = s + rnd(3) + ftoi(x);\n"
             "  }\n"
             "  return s;\n"
             "}\n");
  LoopDepGraph G = A.depGraph();
  int PureCalls = 0, ImpureCalls = 0;
  for (const LoopStmt &S : G.stmts()) {
    if (S.I->Op != Opcode::Call)
      continue;
    if (S.Movable)
      ++PureCalls;
    else
      ++ImpureCalls;
  }
  EXPECT_EQ(PureCalls, 1);   // sqrt
  EXPECT_EQ(ImpureCalls, 1); // rnd
}

TEST(DepGraphTest, RndCreatesCrossDependence) {
  Analyzed A("int f(int n) {\n"
             "  int s; int i;\n"
             "  for (i = 0; i < n; i = i + 1) s = s + rnd(3);\n"
             "  return s;\n"
             "}\n");
  LoopDepGraph G = A.depGraph();
  // The rnd() call must be a violation candidate (its hidden state is a
  // cross-iteration dependence) and must not be movable.
  bool RndIsVc = false;
  for (uint32_t Vc : G.violationCandidates())
    if (G.stmt(Vc).I->Op == Opcode::Call) {
      RndIsVc = true;
      EXPECT_FALSE(G.stmt(Vc).Movable);
    }
  EXPECT_TRUE(RndIsVc);
}

TEST(DepGraphTest, DepProfileLowersCrossProbability) {
  Analyzed A(SimpleLoopSrc);

  // Without a profile: type-based aliasing yields a confident cross
  // memory edge store->load.
  LoopDepGraph Static = A.depGraph();
  double StaticCrossMem = 0.0;
  for (const DepEdge &E : Static.edges())
    if (E.Cross && E.Kind == DepKind::FlowMem)
      StaticCrossMem = std::max(StaticCrossMem, E.Prob);
  EXPECT_GT(StaticCrossMem, 0.5);

  // With a profile reporting zero cross hits, the edge disappears.
  LoopDepProfileData Prof;
  for (const LoopStmt &S : Static.stmts())
    if (S.I->Op == Opcode::Store || S.I->Op == Opcode::Load)
      Prof.StmtExec[S.Id] = 100;
  // (No pairs recorded at all: the loop never had a memory dependence.)
  DepGraphOptions Opts;
  Opts.DepProfile = &Prof;
  LoopDepGraph Profiled = A.depGraph(0, Opts);
  for (const DepEdge &E : Profiled.edges())
    if (E.Cross && E.Kind == DepKind::FlowMem)
      ADD_FAILURE() << "profiled zero-hit cross edge should be dropped";
  // Register cross deps remain (they are exact, not profiled).
  EXPECT_FALSE(Profiled.violationCandidates().empty());
}

TEST(DepGraphTest, SyntheticGraphRoundTrips) {
  std::vector<LoopStmt> Stmts(3);
  for (auto &S : Stmts) {
    S.IterFreq = 1.0;
    S.Weight = 1.0;
  }
  std::vector<DepEdge> Edges = {
      {0, 1, DepKind::FlowReg, true, 0.5},
      {1, 2, DepKind::FlowReg, false, 1.0},
  };
  LoopDepGraph G = LoopDepGraph::forSynthetic(Stmts, Edges);
  EXPECT_EQ(G.size(), 3u);
  ASSERT_EQ(G.violationCandidates().size(), 1u);
  EXPECT_EQ(G.violationCandidates()[0], 0u);
  EXPECT_EQ(G.outEdges(0).size(), 1u);
  EXPECT_EQ(G.inEdges(2).size(), 1u);
  EXPECT_DOUBLE_EQ(G.dynamicBodyWeight(), 3.0);
}

//===- tests/depgraph_modes_test.cpp - Mode-specific dep-graph options --------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the dependence-graph options that differentiate the
// paper's compilation modes: coarse (C-strength type-based) aliasing,
// callee-weighted cost-graph nodes, impure-call motion ("global export"),
// and the Figure 19 call-effect blind spot.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "cost/CostModel.h"
#include "lang/Frontend.h"

#include <gtest/gtest.h>

using namespace spt;

namespace {

struct Ctx {
  std::unique_ptr<Module> M;
  const Function *F;
  CfgInfo Cfg;
  LoopNest Nest;
  CfgProbabilities Probs;
  FreqInfo Freq;
  CallEffects Effects;

  explicit Ctx(const std::string &Src)
      : M(compileOrDie(Src)), F(M->findFunction("f")),
        Cfg(CfgInfo::compute(*F)), Nest(LoopNest::compute(*F, Cfg)),
        Probs(CfgProbabilities::staticHeuristic(*F, Cfg, Nest)),
        Freq(FreqInfo::compute(*F, Cfg, Nest, Probs)),
        Effects(CallEffects::compute(*M)) {}

  LoopDepGraph graph(DepGraphOptions Opts = DepGraphOptions(),
                     uint32_t LoopIdx = 0) {
    return LoopDepGraph::build(*M, *F, Cfg, *Nest.loop(LoopIdx), Freq, Effects,
                               Opts);
  }
};

} // namespace

TEST(DepGraphModesTest, CoarseAliasingMergesSameTypedArrays) {
  // Stores to out[], loads from in[]: per-array classes see no cross
  // memory dependence; coarse (same element type) classes must.
  Ctx C("int in[64]; int out[64];\n"
        "int f(int n) {\n"
        "  int i; int s;\n"
        "  for (i = 0; i < n; i = i + 1) {\n"
        "    out[i % 64] = in[i % 64] * 3;\n"
        "    s = s + in[i % 64];\n"
        "  }\n"
        "  return s;\n"
        "}\n");
  auto crossMemEdges = [](const LoopDepGraph &G) {
    int N = 0;
    for (const DepEdge &E : G.edges())
      if (E.Cross && E.Kind == DepKind::FlowMem && E.Prob > 1e-9)
        ++N;
    return N;
  };
  EXPECT_EQ(crossMemEdges(C.graph()), 0);
  DepGraphOptions Coarse;
  Coarse.CoarseAliasClasses = true;
  EXPECT_GT(crossMemEdges(C.graph(Coarse)), 0);
}

TEST(DepGraphModesTest, CoarseAliasingKeepsTypesApart) {
  // fp stores never alias int loads even under coarse classes.
  Ctx C("int in[64]; fp out[64];\n"
        "int f(int n) {\n"
        "  int i; int s;\n"
        "  for (i = 0; i < n; i = i + 1) {\n"
        "    out[i % 64] = itof(in[i % 64]);\n"
        "    s = s + in[i % 64];\n"
        "  }\n"
        "  return s;\n"
        "}\n");
  DepGraphOptions Coarse;
  Coarse.CoarseAliasClasses = true;
  LoopDepGraph G = C.graph(Coarse);
  for (const DepEdge &E : G.edges())
    if (E.Cross && E.Kind == DepKind::FlowMem) {
      EXPECT_LE(E.Prob, 1e-9) << "int/fp arrays must stay disjoint";
    }
}

TEST(DepGraphModesTest, CallWeightsScaleCostNodes) {
  const char *Src = "int g[4];\n"
                    "int heavy(int x) {\n"
                    "  int k; int a;\n"
                    "  g[0] = g[0] + 1;\n"
                    "  for (k = 0; k < 32; k = k + 1) a = a + x * k;\n"
                    "  return a;\n"
                    "}\n"
                    "int f(int n) {\n"
                    "  int i; int s;\n"
                    "  for (i = 0; i < n; i = i + 1) s = s + heavy(i);\n"
                    "  return s;\n"
                    "}\n";
  Ctx C(Src);
  LoopDepGraph Flat = C.graph();

  std::map<const Function *, double> Weights;
  Weights[C.M->findFunction("heavy")] = 500.0;
  DepGraphOptions Opts;
  Opts.CallWeights = &Weights;
  LoopDepGraph Weighted = C.graph(Opts);

  // The call statement's weight (and hence the misspeculation cost of the
  // partition that leaves it speculative) must scale accordingly.
  double FlatCallW = 0, WeightedCallW = 0;
  for (uint32_t SI = 0; SI != Flat.size(); ++SI)
    if (Flat.stmt(SI).I->Op == Opcode::Call) {
      FlatCallW = Flat.stmt(SI).Weight;
      WeightedCallW = Weighted.stmt(SI).Weight;
    }
  EXPECT_DOUBLE_EQ(FlatCallW, 10.0);
  EXPECT_DOUBLE_EQ(WeightedCallW, 500.0);

  MisspecCostModel MFlat(Flat), MWeighted(Weighted);
  EXPECT_GT(MWeighted.emptyPartitionCost(),
            MFlat.emptyPartitionCost() * 5.0);
}

TEST(DepGraphModesTest, ImpureCallMotionFlag) {
  const char *Src = "int g[4];\n"
                    "int bump(int x) { g[0] = g[0] + x; return g[0]; }\n"
                    "int f(int n) {\n"
                    "  int i; int s;\n"
                    "  for (i = 0; i < n; i = i + 1) s = s + bump(i);\n"
                    "  return s;\n"
                    "}\n";
  Ctx C(Src);
  LoopDepGraph Plain = C.graph();
  DepGraphOptions Opts;
  Opts.AllowImpureCallMotion = true;
  LoopDepGraph Exported = C.graph(Opts);
  for (uint32_t SI = 0; SI != Plain.size(); ++SI)
    if (Plain.stmt(SI).I->Op == Opcode::Call) {
      EXPECT_FALSE(Plain.stmt(SI).Movable);
      EXPECT_TRUE(Exported.stmt(SI).Movable);
    }
}

TEST(DepGraphModesTest, CallEffectBlindSpotDropsCost) {
  // The Figure 19 blind spot: ignoring callee effects hides the
  // loop-carried dependence through bump()'s global.
  const char *Src = "int g[4];\n"
                    "int bump(int x) { g[0] = g[0] + x; return g[0]; }\n"
                    "int f(int n) {\n"
                    "  int i; int s;\n"
                    "  for (i = 0; i < n; i = i + 1) s = s + bump(i);\n"
                    "  return s;\n"
                    "}\n";
  Ctx C(Src);
  LoopDepGraph Modeled = C.graph();
  DepGraphOptions Blind;
  Blind.ModelCallEffectsInCost = false;
  LoopDepGraph Blinded = C.graph(Blind);

  auto hasCallVc = [](const LoopDepGraph &G) {
    for (uint32_t Vc : G.violationCandidates())
      if (G.stmt(Vc).I->Op == Opcode::Call)
        return true;
    return false;
  };
  EXPECT_TRUE(hasCallVc(Modeled));
  EXPECT_FALSE(hasCallVc(Blinded));
}

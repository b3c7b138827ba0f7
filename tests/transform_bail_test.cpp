//===- tests/transform_bail_test.cpp - Transform failure-path tests -----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Failure injection for the SPT transformation: hand-crafted partitions
// that violate its realizability conditions must be rejected with a
// diagnostic and leave the function untouched (verified by re-running it).
// Also covers the Graphviz exporter.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/DepGraphDot.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "interp/Interp.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "lang/Frontend.h"
#include "transform/SptTransform.h"

#include <gtest/gtest.h>

using namespace spt;

namespace {

struct Ctx {
  std::unique_ptr<Module> M;
  Function *F;
  CfgInfo Cfg;
  LoopNest Nest;
  CfgProbabilities Probs;
  FreqInfo Freq;
  CallEffects Effects;
  LoopDepGraph G;

  explicit Ctx(const std::string &Src, uint32_t LoopIdx = 0)
      : M(compileOrDie(Src)), F(M->findFunction("f")),
        Cfg(CfgInfo::compute(*F)), Nest(LoopNest::compute(*F, Cfg)),
        Probs(CfgProbabilities::staticHeuristic(*F, Cfg, Nest)),
        Freq(FreqInfo::compute(*F, Cfg, Nest, Probs)),
        Effects(CallEffects::compute(*M)),
        G(LoopDepGraph::build(*M, *F, Cfg, *Nest.loop(LoopIdx), Freq,
                              Effects)) {}

  /// Stmt index of the first statement matching \p Pred.
  template <typename PredT> uint32_t find(PredT Pred) {
    for (uint32_t SI = 0; SI != G.size(); ++SI)
      if (Pred(*G.stmt(SI).I))
        return SI;
    return ~0u;
  }
};

const char *TwoDefSrc = "int f(int n) {\n"
                        "  int i; int s; int x;\n"
                        "  for (i = 0; i < n; i = i + 1) {\n"
                        "    x = i * 3;\n"       // First def of x.
                        "    s = s + x;\n"
                        "    x = x + 1;\n"       // Second def of x.
                        "    s = s + x * 2;\n"
                        "  }\n"
                        "  return s + x;\n"
                        "}\n";

/// Saturates \p P under the transform's closure rule: every
/// intra-iteration dependence (register anti/output excluded) into a
/// marked statement pulls its source in.
void closeUnderIntraDeps(const LoopDepGraph &G, PartitionSet &P) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const DepEdge &E : G.edges()) {
      if (E.Cross || E.Kind == DepKind::AntiReg || E.Kind == DepKind::OutReg)
        continue;
      if (P[E.Dst] && !P[E.Src]) {
        P[E.Src] = 1;
        Changed = true;
      }
    }
  }
}

/// Def statement indices per destination register, in statement order.
std::map<Reg, std::vector<uint32_t>> defsByReg(const LoopDepGraph &G) {
  std::map<Reg, std::vector<uint32_t>> Defs;
  for (uint32_t SI = 0; SI != G.size(); ++SI)
    if (G.stmt(SI).I->Dst != NoReg)
      Defs[G.stmt(SI).I->Dst].push_back(SI);
  return Defs;
}

/// The unique register with exactly \p N in-loop definitions (the test
/// sources are written so only their interesting register qualifies).
Reg uniqueRegWithDefs(const LoopDepGraph &G, size_t N) {
  Reg Found = NoReg;
  for (const auto &[Rg, Defs] : defsByReg(G))
    if (Defs.size() == N) {
      EXPECT_EQ(Found, NoReg) << "ambiguous register identification";
      Found = Rg;
    }
  EXPECT_NE(Found, NoReg);
  return Found;
}

/// Applies the transform expecting the exact (stable) bail message and a
/// byte-identical function afterwards.
void expectBail(Ctx &C, const PartitionSet &P, const char *ExpectError) {
  const std::string Before = functionToString(*C.M, *C.F);
  SptTransformResult R =
      applySptTransform(*C.M, *C.F, C.Cfg, *C.Nest.loop(0), C.G, P, 1);
  ASSERT_FALSE(R.Ok) << "expected bail: " << ExpectError;
  EXPECT_EQ(R.Error, ExpectError);
  EXPECT_EQ(functionToString(*C.M, *C.F), Before)
      << "a rejected transform must leave the function untouched";
}

} // namespace

// Bail: "partition is not closed under intra-iteration dependences" —
// mark the sink of a flow edge without its source.
TEST(TransformBailTest, UnclosedPartitionRejected) {
  Ctx C(TwoDefSrc);
  uint32_t Dst = ~0u;
  for (const DepEdge &E : C.G.edges())
    if (!E.Cross && E.Kind == DepKind::FlowReg && E.Src != E.Dst) {
      Dst = E.Dst;
      break;
    }
  ASSERT_NE(Dst, ~0u);
  PartitionSet P(C.G.size(), 0);
  P[Dst] = 1; // Its flow predecessor stays behind: not closed.
  expectBail(C, P,
             "partition is not closed under intra-iteration dependences");
}

// Bail: "un-moved definition precedes a moved one" — move only a second
// definition whose closure does not pull the first one in (x = i * 5
// depends on nothing the first definition feeds).
TEST(TransformBailTest, UnmovedDefPrecedesMovedDefRejected) {
  Ctx C("int f(int n) {\n"
        "  int i; int s; int x;\n"
        "  for (i = 0; i < n; i = i + 1) {\n"
        "    x = i * 3;\n"
        "    s = s + x;\n"
        "    x = i * 5;\n"
        "    s = s + x * 2;\n"
        "  }\n"
        "  return s;\n"
        "}\n");
  bool Found = false;
  for (const auto &[Rg, Defs] : defsByReg(C.G)) {
    (void)Rg;
    if (Defs.size() < 2)
      continue;
    PartitionSet P(C.G.size(), 0);
    P[Defs.back()] = 1;
    closeUnderIntraDeps(C.G, P);
    if (P[Defs.front()])
      continue; // Closure pulled the earlier definition in: no mix.
    Found = true;
    expectBail(C, P, "un-moved definition precedes a moved one");
    break;
  }
  EXPECT_TRUE(Found) << "no register with an independent second definition";
}

// Bail: "ambiguous reaching definitions for a moved register" — a read
// reached by the same definition both intra-iteration (branch taken) and
// across the back edge (branch skipped).
TEST(TransformBailTest, AmbiguousReachingDefsRejected) {
  Ctx C("int f(int n) {\n"
        "  int i; int s; int x; int t;\n"
        "  for (i = 0; i < n; i = i + 1) {\n"
        "    if (i & 1) { x = i * 3; }\n"
        "    t = x + 1;\n"
        "    s = s + t;\n"
        "  }\n"
        "  return s;\n"
        "}\n");
  // Find the (def, use) pair connected by both an intra and a cross flow
  // edge — the ambiguity the transform must reject once the def moves.
  uint32_t DefSI = ~0u;
  for (const DepEdge &EI : C.G.edges()) {
    if (EI.Kind != DepKind::FlowReg || EI.Cross)
      continue;
    for (const DepEdge &EC : C.G.edges())
      if (EC.Kind == DepKind::FlowReg && EC.Cross && EC.Src == EI.Src &&
          EC.Dst == EI.Dst)
        DefSI = EI.Src;
  }
  ASSERT_NE(DefSI, ~0u);
  PartitionSet P(C.G.size(), 0);
  P[DefSI] = 1;
  closeUnderIntraDeps(C.G, P);
  expectBail(C, P, "ambiguous reaching definitions for a moved register");
}

// Bail: "read reaches both moved and un-moved definitions" — a diamond
// defines x on both arms but only one arm's definition moves.
TEST(TransformBailTest, MixedReachingDefsRejected) {
  Ctx C("int f(int n) {\n"
        "  int i; int s; int x; int t;\n"
        "  for (i = 0; i < n; i = i + 1) {\n"
        "    if (i & 1) { x = i * 3; } else { x = i * 5; }\n"
        "    t = x + 1;\n"
        "    s = s + t;\n"
        "  }\n"
        "  return s;\n"
        "}\n");
  const Reg X = uniqueRegWithDefs(C.G, 2);
  ASSERT_NE(X, NoReg);
  const std::vector<uint32_t> Defs = defsByReg(C.G).at(X);
  PartitionSet P(C.G.size(), 0);
  P[Defs.front()] = 1; // One arm only; the other stays un-moved.
  closeUnderIntraDeps(C.G, P);
  ASSERT_FALSE(P[Defs.back()]);
  expectBail(C, P, "read reaches both moved and un-moved definitions");
}

// Bail: "post-fork carried read of a mixed register" — the loop-top read
// of x consumes last iteration's value; moving only the conditional
// definition leaves that carried reader un-moved.
TEST(TransformBailTest, PostForkCarriedReadRejected) {
  Ctx C("int f(int n) {\n"
        "  int i; int s; int x;\n"
        "  for (i = 0; i < n; i = i + 1) {\n"
        "    s = s + x;\n"
        "    if (i & 1) { x = i * 3; }\n"
        "    x = i * 7;\n"
        "  }\n"
        "  return s;\n"
        "}\n");
  const Reg X = uniqueRegWithDefs(C.G, 2);
  ASSERT_NE(X, NoReg);
  const std::vector<uint32_t> Defs = defsByReg(C.G).at(X);
  PartitionSet P(C.G.size(), 0);
  P[Defs.front()] = 1; // The conditional (then-arm) definition.
  closeUnderIntraDeps(C.G, P);
  ASSERT_FALSE(P[Defs.back()]);
  expectBail(C, P, "post-fork carried read of a mixed register");
}

// Bail: "carried read follows a moved definition". Unreachable from
// build()'s kill-precise flow edges (any moved statement past the moved
// definition would carry an intra edge and trip the ambiguity check
// first), so model a client with coarser dependence information: a
// conservative cross edge onto a moved statement sitting after the moved
// definition.
TEST(TransformBailTest, CarriedReadAfterMovedDefRejected) {
  Ctx C("int f(int n) {\n"
        "  int i; int s; int x; int t;\n"
        "  for (i = 0; i < n; i = i + 1) {\n"
        "    x = i * 3;\n"
        "    t = i * 5;\n"
        "    s = s + t + x;\n"
        "    x = i * 7;\n"
        "  }\n"
        "  return s;\n"
        "}\n");
  const Reg X = uniqueRegWithDefs(C.G, 2);
  ASSERT_NE(X, NoReg);
  const std::vector<uint32_t> Defs = defsByReg(C.G).at(X);
  const uint32_t MovedDef = Defs.front(), UnmovedDef = Defs.back();
  // A defining statement after the moved definition that does not read x
  // (the t = i * 5 chain): the fake carried reader.
  uint32_t Reader = ~0u;
  for (uint32_t SI = MovedDef + 1; SI != C.G.size() && Reader == ~0u;
       ++SI) {
    const Instr &I = *C.G.stmt(SI).I;
    if (I.Dst == NoReg || I.Dst == X)
      continue;
    bool ReadsX = false;
    for (Reg S : I.Srcs)
      ReadsX |= S == X;
    if (!ReadsX && C.G.canPrecedeIntra(MovedDef, SI))
      Reader = SI;
  }
  ASSERT_NE(Reader, ~0u);
  C.G.addConservativeEdge(UnmovedDef, Reader, DepKind::FlowReg,
                          /*Cross=*/true, 1.0);
  PartitionSet P(C.G.size(), 0);
  P[MovedDef] = 1;
  P[Reader] = 1;
  closeUnderIntraDeps(C.G, P);
  ASSERT_FALSE(P[UnmovedDef]);
  expectBail(C, P, "carried read follows a moved definition");
}

// Bail: "irregular moved-definition classes" — a diamond whose then arm
// defines x twice in sequence while the else arm defines it once. RPO
// statement order puts the single definition first, so the greedy
// parallel-class grouping merges both sequenced definitions into its
// class (each is parallel to the single one), and the pairwise safety
// check must catch the sequenced pair.
TEST(TransformBailTest, IrregularMovedDefClassesRejected) {
  Ctx C("int f(int n) {\n"
        "  int i; int s; int x; int t;\n"
        "  for (i = 0; i < n; i = i + 1) {\n"
        "    if (i & 1) { x = i * 3; x = x + 5; } else { x = i * 7; }\n"
        "    t = x + 1;\n"
        "    s = s + t;\n"
        "  }\n"
        "  return s;\n"
        "}\n");
  const Reg X = uniqueRegWithDefs(C.G, 3);
  ASSERT_NE(X, NoReg);
  PartitionSet P(C.G.size(), 0);
  const std::vector<uint32_t> Defs = defsByReg(C.G).at(X);
  for (uint32_t D : Defs)
    P[D] = 1;
  closeUnderIntraDeps(C.G, P);
  expectBail(C, P, "irregular moved-definition classes");
}

// Bail: "read reaches moved definitions in different classes" — an
// unconditional definition followed by a conditional redefinition, both
// moved: the join read reaches two sequenced (different-class) moved
// definitions and cannot pick one forwarding temp.
TEST(TransformBailTest, ReadAcrossDefClassesRejected) {
  Ctx C("int f(int n) {\n"
        "  int i; int s; int x; int t;\n"
        "  for (i = 0; i < n; i = i + 1) {\n"
        "    x = i * 3;\n"
        "    if (i & 1) { x = i * 5; }\n"
        "    t = x + 1;\n"
        "    s = s + t;\n"
        "  }\n"
        "  return s;\n"
        "}\n");
  const Reg X = uniqueRegWithDefs(C.G, 2);
  ASSERT_NE(X, NoReg);
  PartitionSet P(C.G.size(), 0);
  const std::vector<uint32_t> Defs = defsByReg(C.G).at(X);
  for (uint32_t D : Defs)
    P[D] = 1;
  closeUnderIntraDeps(C.G, P);
  expectBail(C, P, "read reaches moved definitions in different classes");
}

// Bail: "pre-fork routing would skip moved statements". With build()'s
// exact control dependences the closure always pulls the controlling
// branch in first, so model a client that dropped control edges: the
// un-moved header (exit) branch must refuse to route around moved body
// statements rather than silently skip them.
TEST(TransformBailTest, RoutingAroundMovedStatementsRejected) {
  Ctx C("int f(int n) {\n"
        "  int i; int s; int x;\n"
        "  for (i = 0; i < n; i = i + 1) {\n"
        "    x = i * 3;\n"
        "    s = s + x;\n"
        "  }\n"
        "  return s;\n"
        "}\n");
  C.G.removeEdgesIf(
      [](const DepEdge &E) { return E.Kind == DepKind::Control; });
  const Loop &L = *C.Nest.loop(0);
  uint32_t Moved = ~0u;
  for (uint32_t SI = 0; SI != C.G.size() && Moved == ~0u; ++SI)
    if (C.G.stmt(SI).Block != L.Header &&
        !isTerminator(C.G.stmt(SI).I->Op) && C.G.stmt(SI).I->Dst != NoReg)
      Moved = SI;
  ASSERT_NE(Moved, ~0u);
  PartitionSet P(C.G.size(), 0);
  P[Moved] = 1;
  closeUnderIntraDeps(C.G, P);
  expectBail(C, P, "pre-fork routing would skip moved statements");
}

TEST(TransformBailTest, UnmovedDefBeforeMovedDefRejected) {
  Ctx C(TwoDefSrc);
  // Move only the SECOND definition of x (and its closure minus the
  // first): an un-moved definition then precedes a moved one. Mark the
  // last Copy statement (x = x + 1's copy).
  PartitionSet P(C.G.size(), 0);
  uint32_t LastCopy = ~0u;
  for (uint32_t SI = 0; SI != C.G.size(); ++SI)
    if (C.G.stmt(SI).I->Op == Opcode::Copy)
      LastCopy = SI;
  ASSERT_NE(LastCopy, ~0u);
  P[LastCopy] = 1;

  const std::string Before = functionToString(*C.M, *C.F);
  SptTransformResult R =
      applySptTransform(*C.M, *C.F, C.Cfg, *C.Nest.loop(0), C.G, P, 1);
  // Either this copy has an earlier same-register definition (bail) or it
  // was the accumulator (fine); accept both but require: on failure the
  // function is untouched.
  if (!R.Ok) {
    EXPECT_FALSE(R.Error.empty());
    EXPECT_EQ(functionToString(*C.M, *C.F), Before);
  }
}

TEST(TransformBailTest, FailureLeavesFunctionRunnable) {
  // Whatever partition we throw at it, a rejected transform must leave
  // the module byte-identical and a successful one must preserve
  // semantics.
  Ctx C(TwoDefSrc);
  RunOutcome Want = runFunction(*C.M, "f", {Value::ofInt(37)});

  Random Rng(99);
  for (int Trial = 0; Trial != 30; ++Trial) {
    auto M2 = compileOrDie(TwoDefSrc);
    Function *F2 = M2->findFunction("f");
    CfgInfo Cfg2 = CfgInfo::compute(*F2);
    LoopNest Nest2 = LoopNest::compute(*F2, Cfg2);
    CfgProbabilities Probs2 =
        CfgProbabilities::staticHeuristic(*F2, Cfg2, Nest2);
    FreqInfo Freq2 = FreqInfo::compute(*F2, Cfg2, Nest2, Probs2);
    CallEffects Eff2 = CallEffects::compute(*M2);
    LoopDepGraph G2 = LoopDepGraph::build(*M2, *F2, Cfg2, *Nest2.loop(0), Freq2,
                                          Eff2);
    // Random subset of statements as the "partition".
    PartitionSet P(G2.size(), 0);
    for (uint32_t SI = 0; SI != G2.size(); ++SI)
      P[SI] = Rng.nextBool(0.3) ? 1 : 0;
    // Branches must be marked movable-with-closure to be meaningful, but
    // the transform must be robust to arbitrary marks: it either bails or
    // produces a verifying, semantics-preserving function.
    SptTransformResult R =
        applySptTransform(*M2, *F2, Cfg2, *Nest2.loop(0), G2, P, 1);
    if (!R.Ok)
      continue;
    ASSERT_EQ(verifyFunction(*M2, *F2), "") << "trial " << Trial;
    RunOutcome Got = runFunction(*M2, "f", {Value::ofInt(37)});
    EXPECT_EQ(Got.Result.I, Want.Result.I) << "trial " << Trial;
  }
}

TEST(DepGraphDotTest, EmitsWellFormedDot) {
  Ctx C("int a[64];\n"
        "int f(int n) {\n"
        "  int i; int s;\n"
        "  for (i = 0; i < n; i = i + 1) {\n"
        "    a[i & 63] = (a[i & 63] + i) & 1023;\n"
        "    s = s + a[i & 63];\n"
        "  }\n"
        "  return s;\n"
        "}\n");
  DotOptions Opts;
  Opts.InPreFork.assign(C.G.size(), 0);
  const std::string Dot = depGraphToDot(*C.M, C.G, Opts);
  EXPECT_NE(Dot.find("digraph depgraph {"), std::string::npos);
  EXPECT_NE(Dot.find("peripheries=2"), std::string::npos)
      << "violation candidates must be double-circled";
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos)
      << "cross-iteration edges must be dashed";
  EXPECT_EQ(Dot.find("label=\"\""), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(Dot.back(), '\n');
  EXPECT_NE(Dot.rfind("}\n"), std::string::npos);
}

TEST(DepGraphDotTest, PreForkHighlighting) {
  Ctx C(TwoDefSrc);
  DotOptions Opts;
  Opts.InPreFork.assign(C.G.size(), 0);
  Opts.InPreFork[0] = 1;
  const std::string Dot = depGraphToDot(*C.M, C.G, Opts);
  EXPECT_NE(Dot.find("lightgoldenrod"), std::string::npos);
}

//===- tests/profile_test.cpp - Profiler tests --------------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/Profiler.h"

#include "analysis/Cfg.h"
#include "analysis/LoopInfo.h"
#include "lang/Frontend.h"
#include "lang/ProgramGenerator.h"
#include "testing/ProfileDump.h"
#include "testing/ReferenceProfiler.h"

#include <gtest/gtest.h>

using namespace spt;

namespace {

/// Profiles \p Fn(\p Args) with both profilers, requires field-equal
/// bundles, and returns the shipped profiler's.
ProfileBundle profileBoth(const Module &M, const std::string &Fn,
                          const std::vector<Value> &Args,
                          const ProfilerOptions &Opts = ProfilerOptions()) {
  ProfileBundle Got = profileRun(M, Fn, Args, Opts);
  const ProfileBundle Want = referenceProfileRun(M, Fn, Args, Opts);
  EXPECT_EQ(diffProfileBundles(M, Got, Want), "");
  return Got;
}

/// The only statement of \p F with opcode \p Op (optionally: calling
/// \p Callee).
StmtId onlyStmt(const Module &M, const Function *F, Opcode Op,
                const std::string &Callee = "") {
  StmtId Found = NoStmt;
  for (const auto &BB : *F)
    for (const Instr &I : BB->Instrs)
      if (I.Op == Op &&
          (Callee.empty() || M.function(I.calleeIndex())->name() == Callee)) {
        EXPECT_EQ(Found, NoStmt) << "more than one candidate statement";
        Found = I.Id;
      }
  EXPECT_NE(Found, NoStmt);
  return Found;
}

/// Finds the only loop of function \p Fn and returns (function, loop id).
std::pair<const Function *, uint32_t> onlyLoop(const Module &M,
                                               const std::string &Fn) {
  const Function *F = M.findFunction(Fn);
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  EXPECT_EQ(Nest.numLoops(), 1u);
  return {F, Nest.loop(0)->Id};
}

} // namespace

TEST(ProfilerTest, EdgeCountsMatchTripCount) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int s; int i;\n"
                        "  for (i = 0; i < n; i = i + 1) s = s + i;\n"
                        "  return s;\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(10)});
  EXPECT_EQ(B.Result.I, 45);

  const Function *F = M->findFunction("f");
  const FunctionEdgeCounts *EC = B.Edges.countsFor(F);
  ASSERT_NE(EC, nullptr);
  // Entry once; loop header 11 times (10 iterations + final test).
  EXPECT_EQ(EC->Block[F->entry()], 1u);
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  ASSERT_EQ(Nest.numLoops(), 1u);
  EXPECT_EQ(EC->Block[Nest.loop(0)->Header], 11u);
}

TEST(ProfilerTest, FunctionalResultMatchesPlainInterpretation) {
  const char *Src = "int a[50];\n"
                    "int f(int n) {\n"
                    "  int i; int s;\n"
                    "  for (i = 0; i < n; i = i + 1) a[i] = rnd(100);\n"
                    "  for (i = 0; i < n; i = i + 1) s = s + a[i];\n"
                    "  return s;\n"
                    "}\n";
  auto M = compileOrDie(Src);
  RunOutcome Plain = runFunction(*M, "f", {Value::ofInt(30)});
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(30)});
  EXPECT_EQ(B.Result.I, Plain.Result.I);
  EXPECT_EQ(B.Instrs, Plain.Instrs);
}

TEST(ProfilerTest, CrossIterationDependenceDetected) {
  // a[i] = a[i-1] + 1: every load reads the previous iteration's store.
  auto M = compileOrDie("int a[100];\n"
                        "int f(int n) {\n"
                        "  int i;\n"
                        "  a[0] = 1;\n"
                        "  for (i = 1; i < n; i = i + 1) a[i] = a[i - 1] + 1;\n"
                        "  return a[n - 1];\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(50)});
  EXPECT_EQ(B.Result.I, 50);

  auto [F, LoopId] = onlyLoop(*M, "f");
  const LoopDepProfileData *D = B.Deps.profileFor(F, LoopId);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Activations, 1u);
  EXPECT_EQ(D->Iterations, 50u); // 49 body iterations + exit visit.

  uint64_t Cross = 0, Intra = 0;
  for (const auto &[Key, C] : D->Pairs) {
    Cross += C.Cross;
    Intra += C.Intra;
  }
  EXPECT_EQ(Cross, 48u); // All but the first loop load hit distance 1.
  EXPECT_EQ(Intra, 0u);
}

TEST(ProfilerTest, IntraIterationDependenceDetected) {
  // a[i] written then read within the same iteration.
  auto M = compileOrDie("int a[100];\n"
                        "int f(int n) {\n"
                        "  int i; int s;\n"
                        "  for (i = 0; i < n; i = i + 1) {\n"
                        "    a[i] = i * 2;\n"
                        "    s = s + a[i];\n"
                        "  }\n"
                        "  return s;\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(20)});
  auto [F, LoopId] = onlyLoop(*M, "f");
  const LoopDepProfileData *D = B.Deps.profileFor(F, LoopId);
  ASSERT_NE(D, nullptr);
  uint64_t Cross = 0, Intra = 0;
  for (const auto &[Key, C] : D->Pairs) {
    Cross += C.Cross;
    Intra += C.Intra;
  }
  EXPECT_EQ(Intra, 20u);
  EXPECT_EQ(Cross, 0u);
}

TEST(ProfilerTest, IndependentIterationsShowNoDependence) {
  // Disjoint elements: no loop-carried memory dependence at all.
  auto M = compileOrDie("int a[100]; int b[100];\n"
                        "int f(int n) {\n"
                        "  int i;\n"
                        "  for (i = 0; i < n; i = i + 1) b[i] = a[i] + 1;\n"
                        "  return b[0];\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(40)});
  auto [F, LoopId] = onlyLoop(*M, "f");
  const LoopDepProfileData *D = B.Deps.profileFor(F, LoopId);
  ASSERT_NE(D, nullptr);
  for (const auto &[Key, C] : D->Pairs) {
    EXPECT_EQ(C.Cross, 0u);
    EXPECT_EQ(C.Intra, 0u);
  }
}

TEST(ProfilerTest, FarDependenceClassified) {
  // a[i] = a[i-3] + 1: distance 3 lands in Far, not Cross.
  auto M = compileOrDie("int a[100];\n"
                        "int f(int n) {\n"
                        "  int i;\n"
                        "  for (i = 3; i < n; i = i + 1) a[i] = a[i - 3] + 1;\n"
                        "  return a[n - 1];\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(60)});
  auto [F, LoopId] = onlyLoop(*M, "f");
  const LoopDepProfileData *D = B.Deps.profileFor(F, LoopId);
  ASSERT_NE(D, nullptr);
  uint64_t Cross = 0, Far = 0;
  for (const auto &[Key, C] : D->Pairs) {
    Cross += C.Cross;
    Far += C.Far;
  }
  EXPECT_EQ(Cross, 0u);
  EXPECT_GT(Far, 40u);
}

TEST(ProfilerTest, CalleeAccessAttributedToCallSite) {
  auto M = compileOrDie("int g[10];\n"
                        "void bump() { g[0] = g[0] + 1; }\n"
                        "int f(int n) {\n"
                        "  int i;\n"
                        "  for (i = 0; i < n; i = i + 1) bump();\n"
                        "  return g[0];\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(25)});
  EXPECT_EQ(B.Result.I, 25);
  auto [F, LoopId] = onlyLoop(*M, "f");
  const LoopDepProfileData *D = B.Deps.profileFor(F, LoopId);
  ASSERT_NE(D, nullptr);
  // The call statement must appear as both writer and reader with
  // cross-iteration hits (g[0] carried between iterations).
  uint64_t CallPairCross = 0;
  for (const auto &[Key, C] : D->Pairs)
    if (Key.first == Key.second)
      CallPairCross += C.Cross;
  EXPECT_EQ(CallPairCross, 24u);

  // With attribution off, the loop sees no memory pairs at all.
  ProfilerOptions Off;
  Off.AttributeCalleeAccesses = false;
  ProfileBundle B2 = profileRun(*M, "f", {Value::ofInt(25)}, Off);
  const LoopDepProfileData *D2 = B2.Deps.profileFor(F, LoopId);
  ASSERT_NE(D2, nullptr);
  uint64_t AnyHits = 0;
  for (const auto &[Key, C] : D2->Pairs)
    AnyHits += C.Cross + C.Intra + C.Far;
  EXPECT_EQ(AnyHits, 0u);
}

TEST(ProfilerTest, RndCreatesSelfDependence) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int i; int s;\n"
                        "  for (i = 0; i < n; i = i + 1) s = s + rnd(5);\n"
                        "  return s;\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(30)});
  auto [F, LoopId] = onlyLoop(*M, "f");
  const LoopDepProfileData *D = B.Deps.profileFor(F, LoopId);
  ASSERT_NE(D, nullptr);
  uint64_t Cross = 0;
  for (const auto &[Key, C] : D->Pairs)
    Cross += C.Cross;
  EXPECT_GE(Cross, 29u); // The RNG state carries every iteration.
}

TEST(ProfilerTest, ValueProfileDetectsStride) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int i; int x; int s;\n"
                        "  for (i = 0; i < n; i = i + 1) {\n"
                        "    x = x + 3;\n"
                        "    s = s + x;\n"
                        "  }\n"
                        "  return s;\n"
                        "}\n");
  const Function *F = M->findFunction("f");
  // Watch every integer def; the x accumulator must show stride 3.
  ProfilerOptions Opts;
  for (const auto &BB : *F)
    for (const Instr &I : BB->Instrs)
      if (I.Dst != NoReg && I.Ty == Type::Int)
        Opts.ValueWatch.insert({F, I.Id});
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(50)}, Opts);

  bool FoundStride3 = false;
  for (const auto &[Key, S] : B.Values.PerStmt) {
    if (S.Samples < 10)
      continue;
    if (S.BestStride == 3 &&
        S.BestStrideHits == S.Samples) // Perfectly regular.
      FoundStride3 = true;
  }
  EXPECT_TRUE(FoundStride3);
}

TEST(ProfilerTest, ValueProfileDetectsLastValue) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int i; int x; int s;\n"
                        "  for (i = 0; i < n; i = i + 1) {\n"
                        "    x = 42;\n"
                        "    s = s + x + i;\n"
                        "  }\n"
                        "  return s;\n"
                        "}\n");
  const Function *F = M->findFunction("f");
  ProfilerOptions Opts;
  for (const auto &BB : *F)
    for (const Instr &I : BB->Instrs)
      if (I.Dst != NoReg && I.Ty == Type::Int)
        Opts.ValueWatch.insert({F, I.Id});
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(40)}, Opts);

  bool FoundConstant = false;
  for (const auto &[Key, S] : B.Values.PerStmt)
    if (S.Samples >= 30 && S.SameValue == S.Samples && S.BestStride == 0)
      FoundConstant = true;
  EXPECT_TRUE(FoundConstant);
}

TEST(ProfilerTest, NestedLoopIterationCounts) {
  auto M = compileOrDie("int f(int n) {\n"
                        "  int i; int j; int s;\n"
                        "  for (i = 0; i < n; i = i + 1)\n"
                        "    for (j = 0; j < 4; j = j + 1)\n"
                        "      s = s + 1;\n"
                        "  return s;\n"
                        "}\n");
  ProfileBundle B = profileRun(*M, "f", {Value::ofInt(5)});
  EXPECT_EQ(B.Result.I, 20);
  const Function *F = M->findFunction("f");
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  ASSERT_EQ(Nest.numLoops(), 2u);
  const Loop *Outer = Nest.loop(0)->Depth == 1 ? Nest.loop(0) : Nest.loop(1);
  const Loop *Inner = Nest.loop(0)->Depth == 2 ? Nest.loop(0) : Nest.loop(1);
  const LoopDepProfileData *DO_ = B.Deps.profileFor(F, Outer->Id);
  const LoopDepProfileData *DI = B.Deps.profileFor(F, Inner->Id);
  ASSERT_NE(DO_, nullptr);
  ASSERT_NE(DI, nullptr);
  EXPECT_EQ(DO_->Activations, 1u);
  EXPECT_EQ(DO_->Iterations, 6u); // 5 body iterations + exit visit.
  EXPECT_EQ(DI->Activations, 5u);
  EXPECT_EQ(DI->Iterations, 25u); // 5 * (4 + 1).
}

//===----------------------------------------------------------------------===//
// Paths of the flat profiler, each checked against the reference profiler
//===----------------------------------------------------------------------===//

TEST(ProfilerTest, StoreInReturnedCalleeAttributedToCall) {
  // put() has returned by the time f's loop reads g[0]: the writer is the
  // Call statement of f's frame, not the store inside put.
  auto M = compileOrDie("int g[4];\n"
                        "void put(int v) { g[0] = v; }\n"
                        "int f(int n) {\n"
                        "  int i; int s;\n"
                        "  for (i = 0; i < n; i = i + 1) {\n"
                        "    put(i);\n"
                        "    s = s + g[0];\n"
                        "  }\n"
                        "  return s;\n"
                        "}\n");
  ProfileBundle B = profileBoth(*M, "f", {Value::ofInt(12)});
  auto [F, LoopId] = onlyLoop(*M, "f");
  const LoopDepProfileData *D = B.Deps.profileFor(F, LoopId);
  ASSERT_NE(D, nullptr);
  const StmtId Call = onlyStmt(*M, F, Opcode::Call, "put");
  const StmtId Load = onlyStmt(*M, F, Opcode::Load);
  auto It = D->Pairs.find({Call, Load});
  ASSERT_NE(It, D->Pairs.end());
  EXPECT_EQ(It->second.Intra, 12u);
  EXPECT_EQ(It->second.Cross, 0u);
  EXPECT_EQ(D->StmtExec.at(Call), 12u);

  ProfilerOptions Off;
  Off.AttributeCalleeAccesses = false;
  ProfileBundle B2 = profileBoth(*M, "f", {Value::ofInt(12)}, Off);
  EXPECT_TRUE(B2.Deps.profileFor(F, LoopId)->Pairs.empty());
}

TEST(ProfilerTest, CallChainDeeperThanInlineSites) {
  // Six frames (f, d1..d5), with loops at depths 0, 3 and 4, so writes at
  // depth 5 must be attributed through the out-of-line call chain.
  const char *Src = "int g[8]; int h[8];\n"
                    "void d5(int v) { g[v & 7] = g[(v + 1) & 7] + v; }\n"
                    "void d4(int v) {\n"
                    "  int k;\n"
                    "  for (k = 0; k < 2; k = k + 1) d5(v + k);\n"
                    "}\n"
                    "void d3(int v) {\n"
                    "  int j;\n"
                    "  for (j = 0; j < 3; j = j + 1) {\n"
                    "    d4(v + j);\n"
                    "    h[j] = g[(v + j) & 7];\n"
                    "  }\n"
                    "}\n"
                    "void d2(int v) { d3(v); }\n"
                    "void d1(int v) { d2(v); }\n"
                    "int f(int n) {\n"
                    "  int i; int s;\n"
                    "  for (i = 0; i < n; i = i + 1) {\n"
                    "    d1(i);\n"
                    "    s = s + g[i & 7] + h[1];\n"
                    "  }\n"
                    "  return s;\n"
                    "}\n";
  auto M = compileOrDie(Src);
  ProfileBundle B = profileBoth(*M, "f", {Value::ofInt(9)});
  // d3's loop sees d5's stores through its call to d4.
  auto [D3, D3Loop] = onlyLoop(*M, "d3");
  const LoopDepProfileData *D = B.Deps.profileFor(D3, D3Loop);
  ASSERT_NE(D, nullptr);
  const StmtId CallD4 = onlyStmt(*M, D3, Opcode::Call, "d4");
  uint64_t FromCall = 0;
  for (const auto &[Key, C] : D->Pairs)
    if (Key.first == CallD4)
      FromCall += C.Intra + C.Cross + C.Far;
  EXPECT_GT(FromCall, 0u);

  ProfilerOptions Off;
  Off.AttributeCalleeAccesses = false;
  profileBoth(*M, "f", {Value::ofInt(9)}, Off);
  ProfilerOptions Values;
  Values.ValueWatch = allIntDefinitions(*M);
  profileBoth(*M, "f", {Value::ofInt(9)}, Values);
}

TEST(ProfilerTest, SameLoopActiveInRecursiveFrames) {
  // r's loop is live in four frames at once; reads of a[i] in inner
  // frames see writes made by outer activations.
  const char *Src = "int a[64];\n"
                    "int r(int d, int n) {\n"
                    "  int i; int s;\n"
                    "  for (i = 0; i < n; i = i + 1) {\n"
                    "    a[d * 8 + i] = a[d * 8 + i] + i;\n"
                    "    if (d < 3 && i == 1) s = s + r(d + 1, n);\n"
                    "    s = s + a[i] + a[8 + i];\n"
                    "  }\n"
                    "  return s;\n"
                    "}\n"
                    "int f(int n) { return r(0, n); }\n";
  auto M = compileOrDie(Src);
  ProfilerOptions Opts;
  Opts.ValueWatch = allIntDefinitions(*M);
  ProfileBundle B = profileBoth(*M, "f", {Value::ofInt(5)}, Opts);
  auto [R, LoopId] = onlyLoop(*M, "r");
  const LoopDepProfileData *D = B.Deps.profileFor(R, LoopId);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Activations, 4u);
  EXPECT_EQ(D->Iterations, 4u * 6u);
  const StmtId Call = onlyStmt(*M, R, Opcode::Call, "r");
  uint64_t CallPairs = 0;
  for (const auto &[Key, C] : D->Pairs)
    if (Key.first == Call || Key.second == Call)
      CallPairs += C.Intra + C.Cross + C.Far;
  EXPECT_GT(CallPairs, 0u);

  ProfilerOptions Off;
  Off.AttributeCalleeAccesses = false;
  profileBoth(*M, "f", {Value::ofInt(5)}, Off);
}

TEST(ProfilerTest, OutOfBoundsAccessesPairUp) {
  // Out-of-bounds loads and stores use the array's base address. a's
  // land in the dense shadow; the zero-length array placed last in the
  // layout sits past it, so its accesses take the side-map path.
  const char *Src = "int a[8]; int z[1];\n"
                    "int f(int n) {\n"
                    "  int i; int s;\n"
                    "  for (i = 0; i < n; i = i + 1) {\n"
                    "    z[i] = a[i] + i;\n"
                    "    s = s + z[i + 1];\n"
                    "    a[i + 4] = s;\n"
                    "  }\n"
                    "  return s;\n"
                    "}\n";
  auto M = compileOrDie(Src);
  const uint32_t Z = M->arrayIdOf("z");
  const uint32_t Empty = M->addArray("empty", Type::Int, 0);
  Function *F = M->findFunction("f");
  for (auto &BB : *F)
    for (Instr &I : BB->Instrs)
      if ((I.Op == Opcode::Load || I.Op == Opcode::Store) && I.arrayId() == Z)
        I.IntImm = Empty;

  ProfileBundle B = profileBoth(*M, "f", {Value::ofInt(20)});
  auto [LF, LoopId] = onlyLoop(*M, "f");
  const LoopDepProfileData *D = B.Deps.profileFor(LF, LoopId);
  ASSERT_NE(D, nullptr);
  // Every z load reads the store of the same iteration (one address).
  uint64_t Intra = 0;
  for (const auto &[Key, C] : D->Pairs)
    Intra += C.Intra;
  EXPECT_GE(Intra, 20u);

  ProfilerOptions Off;
  Off.AttributeCalleeAccesses = false;
  profileBoth(*M, "f", {Value::ofInt(20)}, Off);
}

TEST(ProfilerTest, StepBudgetStopsMidIterationIdentically) {
  // Every budget from 1 step to past the end: partial edge counts,
  // dependences, values and the error text must all match the reference.
  const char *Src = "int a[16];\n"
                    "int g(int x) { a[x & 15] = a[(x + 3) & 15] + x; "
                    "return x * 2; }\n"
                    "int f(int n) {\n"
                    "  int i; int s;\n"
                    "  for (i = 0; i < n; i = i + 1) {\n"
                    "    s = s + g(i) + rnd(7);\n"
                    "    if (s & 1) print_int(s);\n"
                    "  }\n"
                    "  return s;\n"
                    "}\n";
  auto M = compileOrDie(Src);
  ProfilerOptions Opts;
  Opts.ValueWatch = allIntDefinitions(*M);
  const ProfileBundle Full = profileBoth(*M, "f", {Value::ofInt(6)}, Opts);
  ASSERT_TRUE(Full.Completed);
  for (uint64_t Budget = 1; Budget <= Full.Instrs + 1; ++Budget) {
    Opts.MaxSteps = Budget;
    const ProfileBundle B = profileBoth(*M, "f", {Value::ofInt(6)}, Opts);
    EXPECT_EQ(B.Completed, Budget >= Full.Instrs) << "budget " << Budget;
    if (Budget < Full.Instrs) {
      EXPECT_EQ(B.Error, "profileRun: step budget exhausted after " +
                             std::to_string(Budget) + " steps");
    }
  }
}

TEST(ProfilerTest, GeneratedProgramsMatchReference) {
  // Random programs under the driver's three configurations plus
  // attribution off and a budget that ends the run halfway.
  for (uint64_t Seed = 1; Seed != 25; ++Seed) {
    auto M = compileOrDie(generateProgram(Seed));
    ProfilerOptions Edges;
    Edges.CollectDeps = false;
    Edges.CollectValues = false;
    ProfilerOptions All;
    All.ValueWatch = allIntDefinitions(*M);
    ProfilerOptions Deps;
    Deps.CollectValues = false;
    ProfilerOptions Off = All;
    Off.AttributeCalleeAccesses = false;
    ProfileBundle Full;
    for (const ProfilerOptions *O : {&Edges, &All, &Deps, &Off}) {
      SCOPED_TRACE("seed " + std::to_string(Seed));
      Full = profileBoth(*M, "main", {}, *O);
    }
    ProfilerOptions Half = All;
    Half.MaxSteps = Full.Instrs / 2 + 1;
    SCOPED_TRACE("seed " + std::to_string(Seed) + " half budget");
    profileBoth(*M, "main", {}, Half);
  }
}

//===- tests/depgraph_watch_test.cpp - Value-watch set vs the graph -------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// LoopDepGraph::valueWatchCandidates computes stage B's value-watch set
// without building edges. Its oracle is LoopDepGraph::build: the set must
// equal the graph's violation candidates filtered to Int-typed register
// definitions, in statement order. Checked on the loop set of
// DepGraphCorpus.h with and without call effects in cost estimation, with
// fine and coarse alias classes, and with and without each dependence
// profile: a measured record (stage B passes one whenever an artifact is
// installed) and an in-run profile, both taken from one profiling run of
// each program under perfbench's serve_cold budget; plus a hand-written
// loop whose Int call enters the set only through memory.
//
//===----------------------------------------------------------------------===//

#include "DepGraphCorpus.h"

#include "analysis/DepGraph.h"
#include "profile/Profiler.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace spt;
using namespace spt::depgraph_corpus;

namespace {

/// Programs are split into NumChunks tests so ctest -j spreads them.
constexpr size_t NumChunks = 8;

/// The graph's answer: Int-typed, register-defining violation candidates.
std::vector<StmtId> watchedByGraph(const LoopDepGraph &G) {
  std::vector<StmtId> Ids;
  for (uint32_t Vc : G.violationCandidates()) {
    const LoopStmt &S = G.stmt(Vc);
    if (S.I->Dst != NoReg && S.I->Ty == Type::Int)
      Ids.push_back(S.Id);
  }
  return Ids;
}

/// Profiling runs stop after this many steps, serve_cold's budget.
constexpr uint64_t ProfileMaxSteps = 2000000;

/// Checks every option combination on one loop, pricing memory edges with
/// and without \p Profile as the measured record and as the in-run
/// profile; returns the number of watched statements the graph found,
/// summed over the combinations.
size_t checkLoop(const CorpusLoop &C, const LoopDepProfileData *Profile) {
  size_t Watched = 0;
  const LoopDepProfileData *Choices[] = {nullptr, Profile};
  for (const LoopDepProfileData *Measured : Choices) {
    for (const LoopDepProfileData *InRun : Choices) {
      for (bool CallEffectsInCost : {true, false}) {
        for (bool Coarse : {false, true}) {
          DepGraphOptions Opts;
          Opts.Measured = Measured;
          Opts.DepProfile = InRun;
          Opts.ModelCallEffectsInCost = CallEffectsInCost;
          Opts.CoarseAliasClasses = Coarse;
          const std::vector<StmtId> Want = watchedByGraph(LoopDepGraph::build(
              C.M, C.F, C.Cfg, C.L, C.Freq, C.Effects, Opts));
          EXPECT_EQ(LoopDepGraph::valueWatchCandidates(
                        C.M, C.F, C.Cfg, C.L, C.Freq, C.Effects, Opts),
                    Want)
              << C.Key << " measured=" << (Measured != nullptr)
              << " inRun=" << (InRun != nullptr)
              << " callEffectsInCost=" << CallEffectsInCost
              << " coarse=" << Coarse;
          Watched += Want.size();
        }
      }
    }
  }
  return Watched;
}

class ValueWatchCorpus : public ::testing::TestWithParam<size_t> {};

} // namespace

TEST_P(ValueWatchCorpus, MatchesFilteredViolationCandidates) {
  ProfilerOptions PO;
  PO.CollectEdges = false;
  PO.CollectValues = false;
  PO.MaxSteps = ProfileMaxSteps;
  size_t Loops = 0, Profiled = 0, Watched = 0;
  for (size_t P = GetParam(); P < numPrograms(); P += NumChunks)
    forEachShape(P, [&](const std::string &Prefix, const Module &M) {
      const ProfileBundle B = profileRun(M, "main", {}, PO);
      forEachLoopOf(Prefix, M, [&](const CorpusLoop &C) {
        const LoopDepProfileData *Profile = B.Deps.profileFor(&C.F, C.L.Id);
        ++Loops;
        Profiled += Profile != nullptr;
        Watched += checkLoop(C, Profile);
      });
    });
  EXPECT_GT(Loops, 0u);
  // The comparison is vacuous unless some loop has a watched statement,
  // and the profiled dimensions unless some loop ran.
  EXPECT_GT(Watched, 0u);
  EXPECT_GT(Profiled, 0u);
}

INSTANTIATE_TEST_SUITE_P(Chunks, ValueWatchCorpus,
                         ::testing::Range<size_t>(0, NumChunks));

TEST(ValueWatchTest, IntCallEntersThroughMemoryOnly) {
  // bump() writes A, which it also reads, so its call starts a cross-
  // iteration memory flow edge to itself. Its result v is redefined
  // before every use, so no carried register def leaves the call.
  auto M = compileOrDie(R"(
    int A[16];
    int bump(int i) {
      A[i] = A[i] + 1;
      return A[i];
    }
    int main() {
      int s = 0;
      for (int i = 0; i < 100; i++) {
        int v = bump(i % 16);
        s = s + v;
      }
      return s;
    }
  )");
  const Function *F = M->findFunction("main");
  ASSERT_NE(F, nullptr);
  const CfgInfo Cfg = CfgInfo::compute(*F);
  const LoopNest Nest = LoopNest::compute(*F, Cfg);
  ASSERT_EQ(Nest.numLoops(), 1u);
  const Loop &L = *Nest.loop(0);
  const FreqInfo Freq = FreqInfo::compute(
      *F, Cfg, Nest, CfgProbabilities::staticHeuristic(*F, Cfg, Nest));
  const CallEffects Effects = CallEffects::compute(*M);

  const LoopDepGraph G = LoopDepGraph::build(*M, *F, Cfg, L, Freq, Effects);
  uint32_t CallSI = ~0u;
  for (uint32_t SI = 0; SI != G.size(); ++SI)
    if (G.stmt(SI).I->Op == Opcode::Call)
      CallSI = SI;
  ASSERT_NE(CallSI, ~0u);
  ASSERT_NE(G.stmt(CallSI).I->Dst, NoReg);
  ASSERT_EQ(G.stmt(CallSI).I->Ty, Type::Int);
  bool CrossReg = false, CrossMem = false;
  for (uint32_t EI : G.outEdges(CallSI)) {
    const DepEdge &E = G.edges()[EI];
    if (E.Cross && E.Prob > 1e-9) {
      CrossReg |= E.Kind == DepKind::FlowReg;
      CrossMem |= E.Kind == DepKind::FlowMem;
    }
  }
  EXPECT_FALSE(CrossReg);
  EXPECT_TRUE(CrossMem);

  const std::vector<StmtId> Watched =
      LoopDepGraph::valueWatchCandidates(*M, *F, Cfg, L, Freq, Effects);
  EXPECT_EQ(Watched, watchedByGraph(G));
  EXPECT_NE(std::find(Watched.begin(), Watched.end(), G.stmt(CallSI).Id),
            Watched.end());

  // Without call effects in cost estimation the memory edge is priced at
  // zero, so the call leaves the set.
  DepGraphOptions NoCalls;
  NoCalls.ModelCallEffectsInCost = false;
  const std::vector<StmtId> WithoutCalls = LoopDepGraph::valueWatchCandidates(
      *M, *F, Cfg, L, Freq, Effects, NoCalls);
  EXPECT_EQ(WithoutCalls, watchedByGraph(LoopDepGraph::build(
                              *M, *F, Cfg, L, Freq, Effects, NoCalls)));
  EXPECT_EQ(std::find(WithoutCalls.begin(), WithoutCalls.end(),
                      G.stmt(CallSI).Id),
            WithoutCalls.end());
}

//===- tests/depgraph_golden_test.cpp - Pinned dependence-graph digests ---===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Golden digests of LoopDepGraph::build over the loop set of
// DepGraphCorpus.h (10 workloads and 200 serve_cold-shaped generated
// programs, each as lowered and with its innermost loops unrolled x4).
// Every loop is built twice: with Basic-style options (C-strength
// type-based alias classes) and with Anticipated-style ones (impure call
// motion, explicit call weights). Each line of tests/goldens/
// depgraphs.golden holds one loop's two fnv1a digests of a canonical dump:
// every LoopStmt field, every edge in order with its probability at
// %.17g, the violation candidates, both body weights and the intra-
// iteration precedence of the loop's blocks. reports.golden only sees a
// graph change that moves a cost or a partition; this file sees every
// byte. To refresh after an intentional change to the graphs:
//
//   UPDATE_GOLDENS=1 ./build/tests/depgraph_golden_test
//
// then review `git diff tests/goldens/depgraphs.golden`.
//
//===----------------------------------------------------------------------===//

#include "DepGraphCorpus.h"

#include "analysis/DepGraph.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

using namespace spt;
using namespace spt::depgraph_corpus;

namespace {

const char *const GoldenFile = "/tests/goldens/depgraphs.golden";

/// Programs are split into NumChunks tests so ctest -j spreads them.
constexpr size_t NumChunks = 8;

std::string hex16(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

void appendDouble(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), " %.17g", V);
  Out += Buf;
}

void appendUInt(std::string &Out, uint64_t V) {
  Out += ' ';
  Out += std::to_string(V);
}

/// The canonical dump of one graph.
std::string dumpGraph(const LoopDepGraph &G) {
  std::string Out;
  for (uint32_t SI = 0; SI != G.size(); ++SI) {
    const LoopStmt &S = G.stmt(SI);
    Out += "stmt";
    appendUInt(Out, S.Id);
    appendUInt(Out, S.Block);
    appendUInt(Out, S.Index);
    appendUInt(Out, S.I->Id);
    Out += S.I == &G.function().block(S.Block)->Instrs[S.Index] ? " i" : " ?";
    appendDouble(Out, S.IterFreq);
    appendDouble(Out, S.Weight);
    Out += S.Movable ? " m\n" : " f\n";
  }
  for (const DepEdge &E : G.edges()) {
    Out += "edge";
    appendUInt(Out, E.Src);
    appendUInt(Out, E.Dst);
    appendUInt(Out, static_cast<unsigned>(E.Kind));
    Out += E.Cross ? " x" : " i";
    appendDouble(Out, E.Prob);
    Out += '\n';
  }
  Out += "vcs";
  for (uint32_t Vc : G.violationCandidates())
    appendUInt(Out, Vc);
  Out += "\nweights";
  appendDouble(Out, G.staticBodyWeight());
  appendDouble(Out, G.dynamicBodyWeight());
  // Block-level intra-iteration precedence, through each block's first
  // statement.
  std::vector<uint32_t> Firsts;
  for (uint32_t SI = 0; SI != G.size(); ++SI)
    if (SI == 0 || G.stmt(SI).Block != G.stmt(SI - 1).Block)
      Firsts.push_back(SI);
  Out += "\nreach ";
  for (uint32_t A : Firsts)
    for (uint32_t B : Firsts)
      Out += G.canPrecedeIntra(A, B) ? '1' : '0';
  Out += '\n';
  return Out;
}

/// Golden lines: "<program> <shape> <function>:<header>" -> the Basic-
/// and Anticipated-style digests.
using GoldenMap = std::map<std::string, std::string>;

GoldenMap readGoldens() {
  GoldenMap G;
  std::ifstream In(std::string(SPT_SOURCE_DIR) + GoldenFile);
  std::string Program, Shape, Loop, Basic, Anticipated;
  while (In >> Program >> Shape >> Loop >> Basic >> Anticipated)
    G[Program + " " + Shape + " " + Loop] = Basic + " " + Anticipated;
  return G;
}

void writeGoldens(const GoldenMap &G) {
  const std::string Path = std::string(SPT_SOURCE_DIR) + GoldenFile;
  std::ofstream Out(Path, std::ios::binary);
  ASSERT_TRUE(Out.good()) << "cannot write " << Path;
  for (const auto &[Key, Digests] : G)
    Out << Key << " " << Digests << "\n";
}

GoldenMap digestsFor(size_t Program) {
  GoldenMap Out;
  forEachLoop(Program, [&](const CorpusLoop &C) {
    DepGraphOptions Basic;
    Basic.CoarseAliasClasses = true;
    std::map<const Function *, double> CallWeights;
    for (size_t FI = 0; FI != C.M.numFunctions(); ++FI)
      CallWeights[C.M.function(static_cast<uint32_t>(FI))] =
          3.25 * static_cast<double>(FI + 1);
    DepGraphOptions Anticipated;
    Anticipated.AllowImpureCallMotion = true;
    Anticipated.CallWeights = &CallWeights;

    std::string Digests;
    for (const DepGraphOptions *Opts : {&Basic, &Anticipated}) {
      const LoopDepGraph G = LoopDepGraph::build(C.M, C.F, C.Cfg, C.L, C.Freq,
                                                 C.Effects, *Opts);
      for (uint32_t SI = 0; SI != G.size(); ++SI)
        EXPECT_EQ(G.indexOf(G.stmt(SI).Id), SI) << C.Key;
      if (!Digests.empty())
        Digests += ' ';
      Digests += hex16(fnv1a(dumpGraph(G)));
    }
    EXPECT_TRUE(Out.emplace(C.Key, Digests).second)
        << "duplicate loop key '" << C.Key << "'";
  });
  return Out;
}

class DepGraphGolden : public ::testing::TestWithParam<size_t> {};

} // namespace

TEST_P(DepGraphGolden, MatchesPinnedDigests) {
  GoldenMap Got;
  for (size_t P = GetParam(); P < numPrograms(); P += NumChunks)
    Got.merge(digestsFor(P));
  ASSERT_FALSE(Got.empty());
  if (std::getenv("UPDATE_GOLDENS")) {
    GoldenMap All = readGoldens();
    for (const auto &[Key, Digests] : Got)
      All[Key] = Digests;
    writeGoldens(All);
    return;
  }
  const GoldenMap Want = readGoldens();
  ASSERT_FALSE(Want.empty())
      << SPT_SOURCE_DIR << GoldenFile
      << " missing or empty; run with UPDATE_GOLDENS=1 to create it";
  for (const auto &[Key, Digests] : Got) {
    auto It = Want.find(Key);
    ASSERT_NE(It, Want.end()) << "no golden digest for '" << Key << "'";
    EXPECT_EQ(Digests, It->second)
        << "'" << Key << "' changed. If intentional, refresh with\n"
        << "  UPDATE_GOLDENS=1 ./build/tests/depgraph_golden_test\n"
        << "and review git diff tests/goldens/depgraphs.golden.";
  }
}

INSTANTIATE_TEST_SUITE_P(Chunks, DepGraphGolden,
                         ::testing::Range<size_t>(0, NumChunks));

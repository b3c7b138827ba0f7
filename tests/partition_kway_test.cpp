//===- tests/partition_kway_test.cpp - K-way partition chain tests -----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Equivalence and property tests for PartitionSearch::runKway, mirroring
// PartitionEquivalenceTest: runKway and the reference k-way search
// (testing/ReferencePlanner.h) must walk the identical per-level trees
// and return bit-identical cuts, on the paper graph, replicated stress
// graphs, the loops of the seed corpus, and generated programs.
// Chain invariants — each cut a superset of its predecessor, costs
// monotonically non-increasing, prefix weights non-decreasing — are
// checked on every result.
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
#include "lang/ProgramGenerator.h"
#include "obs/Obs.h"
#include "testing/ReferencePlanner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace spt;

namespace {

enum PaperStmt : uint32_t { A = 0, B, C, D, E, F };

/// The paper's Figure 5/6 graph (see partition_test.cpp / cost_test.cpp).
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

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Chain invariants every k-way result must satisfy: cut d is a superset
/// of cut d-1, costs only shrink and prefix weights only grow along the
/// chain, and the chain cost sums the cuts' costs.
void checkChainInvariants(const KwayPartitionResult &K) {
  ASSERT_TRUE(K.Searched);
  ASSERT_EQ(K.Cuts.size(), K.Levels);
  double SumCost = 0.0;
  for (size_t D = 0; D != K.Cuts.size(); ++D) {
    const KwayCutRecord &Cut = K.Cuts[D];
    SumCost += Cut.Cost;
    EXPECT_TRUE(std::isfinite(Cut.Cost));
    EXPECT_GE(Cut.Cost, 0.0);
    if (D == 0)
      continue;
    const KwayCutRecord &Prev = K.Cuts[D - 1];
    const std::set<uint32_t> Chosen(Cut.ChosenVcs.begin(),
                                    Cut.ChosenVcs.end());
    for (uint32_t Vc : Prev.ChosenVcs)
      EXPECT_TRUE(Chosen.count(Vc))
          << "cut " << D + 1 << " dropped candidate " << Vc;
    ASSERT_EQ(Cut.InPreFork.size(), Prev.InPreFork.size());
    for (size_t SI = 0; SI != Prev.InPreFork.size(); ++SI)
      if (Prev.InPreFork[SI]) {
        EXPECT_TRUE(Cut.InPreFork[SI])
            << "cut " << D + 1 << " evicted statement " << SI;
      }
    EXPECT_LE(Cut.Cost, Prev.Cost + 1e-9);
    EXPECT_GE(Cut.PreForkWeight, Prev.PreForkWeight - 1e-9);
  }
  EXPECT_NEAR(K.ChainCost, SumCost, 1e-9);
}

/// Runs the base search plus runKway, and the reference searches, and
/// requires bitwise agreement on every cut and on the search statistics
/// that prove the identical trees were walked.
void expectKwayStrategiesAgree(const LoopDepGraph &G, PartitionOptions Opts,
                               uint32_t Levels) {
  MisspecCostModel Model(G);
  PartitionSearch Search(G, Model, Opts);
  const ReferenceCostModel RefModel(G);
  KwayPartitionResult K[2];
  K[0] = referenceKwaySearch(Search, RefModel, Opts,
                             referencePartitionSearch(Search, RefModel, Opts),
                             Levels);
  K[1] = Search.runKway(Search.run(), Levels);
  ASSERT_EQ(K[0].Searched, K[1].Searched);
  if (!K[0].Searched)
    return;
  EXPECT_EQ(K[0].Levels, K[1].Levels);
  EXPECT_EQ(std::memcmp(&K[0].ChainCost, &K[1].ChainCost, sizeof(double)),
            0)
      << K[0].ChainCost << " vs " << K[1].ChainCost;
  EXPECT_EQ(K[0].NodesVisited, K[1].NodesVisited);
  EXPECT_EQ(K[0].CostEvals, K[1].CostEvals);
  ASSERT_EQ(K[0].Cuts.size(), K[1].Cuts.size());
  for (size_t D = 0; D != K[0].Cuts.size(); ++D) {
    const KwayCutRecord &R = K[0].Cuts[D], &I = K[1].Cuts[D];
    EXPECT_EQ(std::memcmp(&R.Cost, &I.Cost, sizeof(double)), 0)
        << "cut " << D + 1 << ": " << R.Cost << " vs " << I.Cost;
    EXPECT_EQ(std::memcmp(&R.PreForkWeight, &I.PreForkWeight,
                          sizeof(double)),
              0)
        << "cut " << D + 1;
    EXPECT_EQ(std::memcmp(&R.Objective, &I.Objective, sizeof(double)), 0)
        << "cut " << D + 1;
    EXPECT_EQ(R.ChosenVcs, I.ChosenVcs) << "cut " << D + 1;
    EXPECT_EQ(R.InPreFork, I.InPreFork) << "cut " << D + 1;
  }
  checkChainInvariants(K[0]);
  checkChainInvariants(K[1]);
}

/// Runs expectKwayStrategiesAgree over every loop graph of \p M that has
/// violation candidates; returns how many were checked.
unsigned checkModuleLoops(const Module &M, uint32_t Levels,
                          unsigned MaxLoops = 6) {
  unsigned Visited = 0;
  CallEffects Effects = CallEffects::compute(M);
  for (size_t FI = 0; FI != M.numFunctions() && Visited < MaxLoops; ++FI) {
    const Function *Fn = M.function(static_cast<uint32_t>(FI));
    if (Fn->isExternal() || Fn->numBlocks() == 0)
      continue;
    CfgInfo Cfg = CfgInfo::compute(*Fn);
    LoopNest Nest = LoopNest::compute(*Fn, Cfg);
    CfgProbabilities Probs =
        CfgProbabilities::staticHeuristic(*Fn, Cfg, Nest);
    FreqInfo Freq = FreqInfo::compute(*Fn, Cfg, Nest, Probs);
    for (uint32_t LI = 0; LI != Nest.numLoops() && Visited < MaxLoops;
         ++LI) {
      LoopDepGraph G = LoopDepGraph::build(M, *Fn, Cfg, *Nest.loop(LI), Freq,
                                           Effects);
      if (G.violationCandidates().empty())
        continue;
      expectKwayStrategiesAgree(G, PartitionOptions(), Levels);
      ++Visited;
    }
  }
  return Visited;
}

} // namespace

TEST(KwayPartitionTest, LevelOneIsTheBaseCutVerbatim) {
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  PartitionOptions Opts;
  Opts.PreForkSizeFraction = 0.5;
  PartitionSearch Search(G, Model, Opts);
  PartitionResult Base = Search.run();
  ASSERT_TRUE(Base.Searched);
  KwayPartitionResult K = Search.runKway(Base, 1);
  ASSERT_TRUE(K.Searched);
  ASSERT_EQ(K.Cuts.size(), 1u);
  EXPECT_EQ(K.Cuts[0].ChosenVcs, Base.ChosenVcs);
  EXPECT_EQ(K.Cuts[0].InPreFork, Base.InPreFork);
  EXPECT_EQ(std::memcmp(&K.Cuts[0].Cost, &Base.Cost, sizeof(double)), 0);
  EXPECT_EQ(K.NodesVisited, 0u) << "level 1 reuses run(), no new search";
}

TEST(KwayPartitionTest, UnsearchedBasePropagates) {
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  PartitionOptions Opts;
  Opts.MaxViolationCandidates = 1; // The paper graph has 3 VCs.
  PartitionSearch Search(G, Model, Opts);
  PartitionResult Base = Search.run();
  ASSERT_FALSE(Base.Searched);
  KwayPartitionResult K = Search.runKway(Base, 3);
  EXPECT_FALSE(K.Searched);
  EXPECT_TRUE(K.Cuts.empty());
}

TEST(KwayPartitionTest, ScratchCountersCoverEveryLevel) {
  // runKway re-seeds both scratches at every level past the first. Those
  // inits must reach the stats dump like run()'s, each counted once.
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  ObsContext Ctx;
  PartitionOptions Opts;
  Opts.PreForkSizeFraction = 0.5;
  Opts.Obs = &Ctx;
  PartitionSearch Search(G, Model, Opts);
  size_t Movable = 0;
  for (size_t NI = 0; NI != Search.numVcNodes(); ++NI)
    Movable += Search.nodeMovable(NI) ? 1 : 0;
  ASSERT_GE(Movable, 2u);

  PartitionResult Base = Search.run();
  ASSERT_TRUE(Base.Searched);
  // run(): the committed scratch and the lower-bound scratch.
  const uint64_t Before = Ctx.snapshot().Counters["cost.scratch.inits"];
  EXPECT_EQ(Before, 2u);
  KwayPartitionResult K = Search.runKway(Base, 3);
  ASSERT_TRUE(K.Searched);
  // Levels 2 and 3 seed both scratches once each.
  EXPECT_EQ(Ctx.snapshot().Counters["cost.scratch.inits"], Before + 4);
}

TEST(KwayPartitionTest, DeeperLevelsRelaxTheThresholdAndExtendTheCut) {
  // At PreForkSizeFraction = 0.5 the base cut is {D,F} (weight 2, cost
  // 0.2); extending to {D,E,F} costs 3 more weight to remove 0.2 cost,
  // so the chain objective w + d*cost flips exactly at level 16
  // (2 + 16*0.2 = 5.2 > 5 + 0). The relaxed threshold min(body,
  // d * 3) admits weight 5 from level 2 on, so the flip is purely the
  // objective's.
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  PartitionOptions Opts;
  Opts.PreForkSizeFraction = 0.5;
  PartitionSearch Search(G, Model, Opts);
  PartitionResult Base = Search.run();
  ASSERT_TRUE(Base.Searched);
  const std::vector<uint32_t> BaseCut = {D, F};
  ASSERT_EQ(Base.ChosenVcs, BaseCut);

  KwayPartitionResult K = Search.runKway(Base, 16);
  ASSERT_TRUE(K.Searched);
  ASSERT_EQ(K.Cuts.size(), 16u);
  const std::vector<uint32_t> Extended = {D, E, F};
  for (size_t Dd = 0; Dd != 15; ++Dd)
    EXPECT_EQ(K.Cuts[Dd].ChosenVcs, BaseCut) << "level " << Dd + 1;
  EXPECT_EQ(K.Cuts[15].ChosenVcs, Extended);
  EXPECT_NEAR(K.Cuts[15].Cost, 0.0, 1e-12);
  EXPECT_NEAR(K.Cuts[15].PreForkWeight, 5.0, 1e-12);
  checkChainInvariants(K);
}

TEST(KwayEquivalenceTest, PaperGraphAllPruneCombinations) {
  LoopDepGraph G = paperGraph();
  for (int SizePrune = 0; SizePrune != 2; ++SizePrune)
    for (int LbPrune = 0; LbPrune != 2; ++LbPrune) {
      PartitionOptions Opts;
      Opts.EnableSizePrune = SizePrune != 0;
      Opts.EnableLowerBoundPrune = LbPrune != 0;
      expectKwayStrategiesAgree(G, Opts, 3);
      Opts.PreForkSizeFraction = 1.0; // No size pressure.
      expectKwayStrategiesAgree(G, Opts, 3);
    }
}

TEST(KwayEquivalenceTest, PruningKeepsTheOptimalChain) {
  // The lower-bound prune must be sound for the chain objective too: the
  // pruned incremental search returns the same cuts as the exhaustive
  // (unpruned) enumeration, even though it visits fewer nodes.
  LoopDepGraph G = replicateAcyclic(paperGraph(), /*Filler=*/1, /*K=*/2);
  PartitionOptions Exhaustive;
  Exhaustive.MaxViolationCandidates = 1000;
  Exhaustive.EnableLowerBoundPrune = false;
  PartitionOptions Pruned = Exhaustive;
  Pruned.EnableLowerBoundPrune = true;

  KwayPartitionResult K[2];
  PartitionOptions *Cfg[2] = {&Exhaustive, &Pruned};
  for (int I = 0; I != 2; ++I) {
    MisspecCostModel Model(G);
    PartitionSearch Search(G, Model, *Cfg[I]);
    K[I] = Search.runKway(Search.run(), 4);
  }
  ASSERT_TRUE(K[0].Searched && K[1].Searched);
  ASSERT_EQ(K[0].Cuts.size(), K[1].Cuts.size());
  for (size_t Dd = 0; Dd != K[0].Cuts.size(); ++Dd) {
    EXPECT_EQ(std::memcmp(&K[0].Cuts[Dd].Cost, &K[1].Cuts[Dd].Cost,
                          sizeof(double)),
              0)
        << "cut " << Dd + 1;
    EXPECT_EQ(K[0].Cuts[Dd].ChosenVcs, K[1].Cuts[Dd].ChosenVcs)
        << "cut " << Dd + 1;
    EXPECT_EQ(K[0].Cuts[Dd].InPreFork, K[1].Cuts[Dd].InPreFork)
        << "cut " << Dd + 1;
  }
  EXPECT_LE(K[1].NodesVisited, K[0].NodesVisited);
}

TEST(KwayEquivalenceTest, ReplicatedStressGraph) {
  LoopDepGraph G = replicateAcyclic(paperGraph(), /*Filler=*/2, /*K=*/3);
  PartitionOptions Opts;
  Opts.MaxViolationCandidates = 1000;
  expectKwayStrategiesAgree(G, Opts, 3);
  Opts.PreForkSizeFraction = 1.0;
  expectKwayStrategiesAgree(G, Opts, 3);
}

TEST(KwayEquivalenceTest, RealLoopsFromCompiledSource) {
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
  EXPECT_GT(checkModuleLoops(*M, /*Levels=*/3), 0u);
}

TEST(KwayEquivalenceTest, SeedCorpus) {
  const std::string Dir = std::string(SPT_SOURCE_DIR) + "/tests/corpus";
  unsigned Programs = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".sptc")
      continue;
    auto M = compileOrDie(readFile(Entry.path().string()));
    checkModuleLoops(*M, /*Levels=*/3);
    ++Programs;
  }
  EXPECT_GE(Programs, 5u) << "seed corpus went missing";
}

TEST(KwayEquivalenceTest, GeneratedPrograms) {
  unsigned Checked = 0;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    auto M = compileOrDie(generateProgram(Seed));
    Checked += checkModuleLoops(*M, /*Levels=*/4, /*MaxLoops=*/3);
  }
  EXPECT_GT(Checked, 0u) << "generated corpus produced no searchable loop";
}

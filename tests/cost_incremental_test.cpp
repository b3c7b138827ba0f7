//===- tests/cost_incremental_test.cpp - Incremental cost bit-exactness ------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Differential tests pinning the central property of the cost model's
// scratch evaluation: every way of reaching a partition through its API —
// initScratch, commitToggle / commitUntoggleDeferred + refreshCost walks,
// undoToggle backtracking, and the one-shot cost() and
// reexecProbabilities() — produces costs and re-execution probabilities
// that are BIT-identical (memcmp, not within-epsilon) to the retained
// pre-optimization model (testing/ReferencePlanner.h), on the paper's
// worked example, on cyclic fixpoint graphs, and on every loop of a
// corpus of generated programs. Also pins the min-heap Kahn construction
// against the reference's linear-scan Kahn (identical topological orders)
// and the topological-order invariant itself.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "cost/CostModel.h"
#include "lang/Frontend.h"
#include "lang/ProgramGenerator.h"
#include "testing/ReferencePlanner.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace spt;

namespace {

/// Bitwise double equality (distinguishes +0/-0, compares NaN payloads) —
/// the property the incremental path promises, stronger than EXPECT_EQ.
::testing::AssertionResult bitEq(double A, double B) {
  if (std::memcmp(&A, &B, sizeof(double)) == 0)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "bitwise mismatch: " << A << " vs " << B;
}

::testing::AssertionResult bitEq(const std::vector<double> &A,
                                 const std::vector<double> &B) {
  if (A.size() != B.size())
    return ::testing::AssertionFailure() << "size mismatch";
  if (A.size() == 0 ||
      std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0)
    return ::testing::AssertionSuccess();
  for (size_t I = 0; I != A.size(); ++I)
    if (std::memcmp(&A[I], &B[I], sizeof(double)) != 0)
      return ::testing::AssertionFailure()
             << "bitwise mismatch at " << I << ": " << A[I] << " vs "
             << B[I];
  return ::testing::AssertionFailure() << "unreachable";
}

/// The paper's Figure 5/6 graph (see cost_test.cpp).
enum PaperStmt : uint32_t { A = 0, B, C, D, E, F };

LoopDepGraph paperGraph() {
  std::vector<LoopStmt> Stmts(6);
  for (auto &S : Stmts) {
    S.IterFreq = 1.0;
    S.Weight = 1.0;
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

/// Paper graph with an extra intra back-edge E -> C, closing the cycle
/// C -> E -> C so evaluation needs fixpoint sweeps.
LoopDepGraph cyclicGraph() {
  std::vector<LoopStmt> Stmts(6);
  for (auto &S : Stmts) {
    S.IterFreq = 1.0;
    S.Weight = 1.0;
  }
  std::vector<DepEdge> Edges = {
      {D, A, DepKind::FlowReg, /*Cross=*/true, 0.2},
      {E, B, DepKind::FlowReg, /*Cross=*/true, 0.1},
      {F, C, DepKind::FlowMem, /*Cross=*/true, 0.2},
      {B, C, DepKind::FlowReg, /*Cross=*/false, 0.5},
      {C, E, DepKind::FlowReg, /*Cross=*/false, 1.0},
      {E, C, DepKind::FlowReg, /*Cross=*/false, 0.7},
      {D, E, DepKind::FlowReg, /*Cross=*/false, 1.0},
  };
  return LoopDepGraph::forSynthetic(std::move(Stmts), std::move(Edges));
}

/// Deterministic xorshift; tests must not depend on library rand().
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed * 2654435761u + 1) {}
  uint64_t next() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  }
  uint32_t below(uint32_t N) { return static_cast<uint32_t>(next() % N); }
};

/// Drives a random commit/undo walk over single-candidate toggles and
/// checks, after EVERY step, that the scratch state matches the reference
/// model bitwise: S.Cost == cost(P), S.V == reexecProbabilities(P), and
/// committing every uncommitted candidate at once (the lower-bound shape)
/// costs cost(P ∪ uncommitted) and undoes back to the same state.
/// Exercises eager commits, deferred removals + refreshCost, and
/// undoToggle in one walk.
void runWalk(const LoopDepGraph &G, uint64_t Seed, int Steps) {
  const std::vector<uint32_t> &Vcs = G.violationCandidates();
  ASSERT_FALSE(Vcs.empty());
  MisspecCostModel Model(G);
  ReferenceCostModel Ref(G);

  std::vector<MisspecCostModel::TogglePlan> Plans;
  for (uint32_t Vc : Vcs)
    Plans.push_back(Model.planToggle({Vc}));
  std::vector<uint32_t> AllVcs(Vcs.begin(), Vcs.end());
  MisspecCostModel::TogglePlan AllPlan = Model.planToggle(AllVcs);

  PartitionSet P(G.size(), 0);
  MisspecCostModel::Scratch S;
  Model.initScratch(S, P);
  std::vector<uint8_t> Committed(Vcs.size(), 0);
  /// One snapshot per commit frame: the partition and committed set the
  /// frame's undo returns to, plus whether S.Cost was settled there
  /// (after a deferred commit and before its refresh the cost is
  /// documented as meaningless, and an undo into such a state keeps it
  /// so — only V/Base are maintained eagerly).
  struct Snapshot {
    PartitionSet P;
    std::vector<uint8_t> Committed;
    bool Settled;
  };
  std::vector<Snapshot> History;
  bool Settled = true;

  Rng R(Seed);
  for (int Step = 0; Step != Steps; ++Step) {
    const int Op = static_cast<int>(R.below(5));
    if (Op == 4 && !History.empty()) {
      Model.undoToggle(S);
      P = History.back().P;
      Committed = History.back().Committed;
      Settled = History.back().Settled;
      History.pop_back();
    } else {
      const uint32_t VI = R.below(static_cast<uint32_t>(Vcs.size()));
      History.push_back({P, Committed, Settled});
      if (!Committed[VI]) {
        Model.commitToggle(S, Plans[VI]);
        Committed[VI] = 1;
        P[Vcs[VI]] = 1;
        Settled = true; // Eager commits refresh the cost themselves.
      } else if (Op == 3) {
        // A run of deferred removals settled by one refresh (the
        // partition search's advance/probe shape).
        Model.commitUntoggleDeferred(S, Plans[VI]);
        Committed[VI] = 0;
        P[Vcs[VI]] = 0;
        Settled = false;
        for (uint32_t Scan = 0; Scan != Vcs.size(); ++Scan)
          if (Committed[Scan] && R.below(2) == 0) {
            History.push_back({P, Committed, Settled});
            Model.commitUntoggleDeferred(S, Plans[Scan]);
            Committed[Scan] = 0;
            P[Vcs[Scan]] = 0;
          }
        EXPECT_TRUE(bitEq(Model.refreshCost(S), Ref.cost(P)));
        Settled = true;
      } else {
        // One deferred removal, left unsettled until a later refresh.
        Model.commitUntoggleDeferred(S, Plans[VI]);
        Committed[VI] = 0;
        P[Vcs[VI]] = 0;
        Settled = false;
      }
    }

    // Committed state must match the reference bitwise. The cost is only
    // comparable in settled states; V is maintained eagerly always.
    if (Settled) {
      EXPECT_TRUE(bitEq(S.Cost, Ref.cost(P)));
    }
    EXPECT_TRUE(bitEq(S.V, Ref.reexecProbabilities(P)));

    // Committing every uncommitted candidate at once (the lower-bound
    // shape) must cost what the reference says of the union, and undo
    // back to the committed state.
    std::vector<uint32_t> Uncommitted;
    PartitionSet Union = P;
    for (size_t VI = 0; VI != Vcs.size(); ++VI)
      if (!Committed[VI]) {
        Uncommitted.push_back(Vcs[VI]);
        Union[Vcs[VI]] = 1;
      }
    if (!Uncommitted.empty()) {
      Model.commitToggle(S, Model.planToggle(std::move(Uncommitted)));
      EXPECT_TRUE(bitEq(S.Cost, Ref.cost(Union)));
      Model.undoToggle(S);
      if (Settled) {
        EXPECT_TRUE(bitEq(S.Cost, Ref.cost(P)));
      }
      EXPECT_TRUE(bitEq(S.V, Ref.reexecProbabilities(P)));
    }
  }

  // Unwind the whole walk; the scratch must land back on the empty
  // partition's solution exactly.
  while (S.depth() != 0)
    Model.undoToggle(S);
  PartitionSet Empty(G.size(), 0);
  EXPECT_TRUE(bitEq(S.Cost, Ref.cost(Empty)));
  EXPECT_TRUE(bitEq(S.V, Ref.reexecProbabilities(Empty)));

  // Toggling everything at once matches the reference too.
  PartitionSet Full(G.size(), 0);
  for (uint32_t Vc : Vcs)
    Full[Vc] = 1;
  Model.commitToggle(S, AllPlan);
  EXPECT_TRUE(bitEq(S.Cost, Ref.cost(Full)));

  // So do the one-shot calls.
  EXPECT_TRUE(bitEq(Model.cost(Full), Ref.cost(Full)));
  EXPECT_TRUE(bitEq(Model.reexecProbabilities(Full),
                    Ref.reexecProbabilities(Full)));
  EXPECT_TRUE(bitEq(Model.emptyPartitionCost(), Ref.emptyPartitionCost()));
}

/// Checks Order is a (quasi-)topological order of the cost graph: for
/// acyclic graphs every intra propagation edge within the graph goes
/// forward. Also pins the construction to the reference's identical
/// order.
void checkTopoOrder(const LoopDepGraph &G) {
  MisspecCostModel Fast(G);
  ReferenceCostModel Ref(G);
  EXPECT_EQ(Fast.topoOrder(), Ref.topoOrder());
  EXPECT_EQ(Fast.reachable(), Ref.reachable());
  EXPECT_EQ(Fast.hasCycles(), Ref.hasCycles());
  EXPECT_TRUE(bitEq(Fast.emptyPartitionCost(), Ref.emptyPartitionCost()));

  const std::vector<uint32_t> &Order = Fast.topoOrder();
  const std::vector<uint8_t> &Reach = Fast.reachable();
  std::vector<uint32_t> Pos(G.size(), ~0u);
  for (uint32_t I = 0; I != Order.size(); ++I)
    Pos[Order[I]] = I;
  // Every reachable statement appears exactly once.
  for (uint32_t SI = 0; SI != G.size(); ++SI)
    EXPECT_EQ(Reach[SI] != 0, Pos[SI] != ~0u) << "stmt " << SI;
  if (Fast.hasCycles())
    return;
  for (const DepEdge &E : G.edges()) {
    if (E.Cross || (E.Kind != DepKind::FlowReg && E.Kind != DepKind::FlowMem &&
                    E.Kind != DepKind::Control))
      continue;
    if (Pos[E.Src] == ~0u || Pos[E.Dst] == ~0u)
      continue;
    EXPECT_LT(Pos[E.Src], Pos[E.Dst])
        << "edge " << E.Src << " -> " << E.Dst << " not topological";
  }
}

/// Runs Fn over every loop dependence graph of a compiled module that has
/// violation candidates.
template <typename FnT> void forEachLoopGraph(const Module &M, FnT Fn) {
  CallEffects Effects = CallEffects::compute(M);
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    const Function *F = M.function(static_cast<uint32_t>(FI));
    if (F->isExternal() || F->numBlocks() == 0)
      continue;
    CfgInfo Cfg = CfgInfo::compute(*F);
    LoopNest Nest = LoopNest::compute(*F, Cfg);
    CfgProbabilities Probs = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
    FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);
    for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI) {
      LoopDepGraph G = LoopDepGraph::build(M, *F, Cfg, *Nest.loop(LI), Freq,
                                           Effects);
      if (G.violationCandidates().empty())
        continue;
      Fn(G);
    }
  }
}

} // namespace

TEST(CostIncrementalTest, PaperGraphWalk) {
  runWalk(paperGraph(), /*Seed=*/1, /*Steps=*/300);
}

TEST(CostIncrementalTest, CyclicGraphWalk) {
  LoopDepGraph G = cyclicGraph();
  ASSERT_TRUE(MisspecCostModel(G).hasCycles());
  runWalk(G, /*Seed=*/2, /*Steps=*/300);
}

TEST(CostIncrementalTest, PaperGraphScratchMatchesReferenceExactly) {
  LoopDepGraph G = paperGraph();
  MisspecCostModel Model(G);
  ReferenceCostModel Ref(G);
  // All 8 subsets of {D, E, F} seeded directly via initScratch.
  const uint32_t Vcs[3] = {D, E, F};
  for (uint32_t Mask = 0; Mask != 8; ++Mask) {
    PartitionSet P(G.size(), 0);
    for (int Bit = 0; Bit != 3; ++Bit)
      if (Mask & (1u << Bit))
        P[Vcs[Bit]] = 1;
    MisspecCostModel::Scratch S;
    Model.initScratch(S, P);
    EXPECT_TRUE(bitEq(S.Cost, Ref.cost(P)));
    EXPECT_TRUE(bitEq(S.V, Ref.reexecProbabilities(P)));
  }
}

TEST(CostIncrementalTest, TopoOrderPaperAndCyclic) {
  checkTopoOrder(paperGraph());
  checkTopoOrder(cyclicGraph());
}

TEST(CostIncrementalTest, GeneratedProgramsWalkBitIdentical) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    auto M = compileOrDie(generateProgram(Seed));
    forEachLoopGraph(*M, [&](const LoopDepGraph &G) {
      checkTopoOrder(G);
      runWalk(G, Seed, /*Steps=*/60);
      // The real graphs are mostly cyclic (inner loops close dependence
      // cycles), which exercises the full-fixpoint fallback; the DAG
      // shadow of the same loop exercises the incremental cone path.
      LoopDepGraph Shadow = replicateAcyclic(G, 0, 1);
      if (!Shadow.violationCandidates().empty()) {
        checkTopoOrder(Shadow);
        runWalk(Shadow, Seed + 1000, /*Steps=*/60);
      }
    });
  }
}

TEST(CostIncrementalTest, GeneratedProgramsCoverCyclicFixpoint) {
  // The corpus must exercise both regimes: the cyclic fallback on the
  // raw graphs and the incremental cone updates on their DAG shadows.
  int Cyclic = 0, AcyclicShadow = 0;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    auto M = compileOrDie(generateProgram(Seed));
    forEachLoopGraph(*M, [&](const LoopDepGraph &G) {
      if (MisspecCostModel(G).hasCycles())
        ++Cyclic;
      if (!MisspecCostModel(replicateAcyclic(G, 0, 1)).hasCycles())
        ++AcyclicShadow;
    });
  }
  EXPECT_GT(Cyclic, 0);
  EXPECT_GT(AcyclicShadow, 0);
}

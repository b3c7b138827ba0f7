//===- testing/ReferencePlanner.cpp - Reference cost model and searches ---===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "testing/ReferencePlanner.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace spt;

namespace {

double clamp01(double X) { return X < 0.0 ? 0.0 : (X > 1.0 ? 1.0 : X); }

} // namespace

//===----------------------------------------------------------------------===//
// Cost model
//===----------------------------------------------------------------------===//

ReferenceCostModel::ReferenceCostModel(const LoopDepGraph &G) : G(&G) {
  const uint32_t N = static_cast<uint32_t>(G.size());

  // Seeds: every cross-iteration flow edge.
  for (const DepEdge &E : G.edges())
    if (E.Cross && isFlowDep(E.Kind) && E.Prob > 1e-9)
      Seeds.push_back(CrossSeed{E.Src, E.Dst, E.Prob});

  // Reachability: DFS from seed targets over intra flow+control edges.
  Reach.assign(N, 0);
  std::vector<uint32_t> Work;
  for (const CrossSeed &S : Seeds)
    if (!Reach[S.Dst]) {
      Reach[S.Dst] = 1;
      Work.push_back(S.Dst);
    }
  while (!Work.empty()) {
    const uint32_t Cur = Work.back();
    Work.pop_back();
    for (uint32_t EI : G.outEdges(Cur)) {
      const DepEdge &E = G.edges()[EI];
      if (E.Cross || !(isFlowDep(E.Kind) || E.Kind == DepKind::Control))
        continue;
      if (E.Prob <= 1e-9 || Reach[E.Dst])
        continue;
      Reach[E.Dst] = 1;
      Work.push_back(E.Dst);
    }
  }

  // Propagation edges among reachable statements.
  for (const DepEdge &E : G.edges()) {
    if (E.Cross || !(isFlowDep(E.Kind) || E.Kind == DepKind::Control))
      continue;
    if (E.Prob <= 1e-9 || !Reach[E.Src] || !Reach[E.Dst])
      continue;
    Prop.push_back(PropEdge{E.Src, E.Dst, E.Prob});
  }
  InOf.assign(N, {});
  for (uint32_t PI = 0; PI != Prop.size(); ++PI)
    InOf[Prop[PI].Dst].push_back(PI);

  // Kahn over the reachable propagation subgraph: pop the smallest ready
  // statement by a linear scan, then rescan every edge for its
  // successors.
  std::vector<uint32_t> InDegree(N, 0);
  for (const PropEdge &E : Prop)
    ++InDegree[E.Dst];
  std::vector<uint8_t> Emitted(N, 0);
  std::vector<uint32_t> Queue;
  for (uint32_t SI = 0; SI != N; ++SI)
    if (Reach[SI] && InDegree[SI] == 0)
      Queue.push_back(SI);
  while (!Queue.empty()) {
    auto MinIt = std::min_element(Queue.begin(), Queue.end());
    const uint32_t Cur = *MinIt;
    Queue.erase(MinIt);
    Order.push_back(Cur);
    Emitted[Cur] = 1;
    for (const PropEdge &E : Prop)
      if (E.Src == Cur && --InDegree[E.Dst] == 0)
        Queue.push_back(E.Dst);
  }
  for (uint32_t SI = 0; SI != N; ++SI)
    if (Reach[SI] && !Emitted[SI]) {
      Order.push_back(SI); // Member of a cycle.
      Cyclic = true;
    }
}

void ReferenceCostModel::propagate(std::vector<double> &V,
                                   const PartitionSet &InPreFork) const {
  assert(InPreFork.size() == G->size() && "partition size mismatch");
  const uint32_t N = static_cast<uint32_t>(G->size());
  V.assign(N, 0.0);

  // Pseudo-node contributions: 0 for a candidate in the pre-fork region,
  // else its violation probability times the cross edge's.
  std::vector<double> Base(N, 0.0);
  for (const CrossSeed &S : Seeds) {
    if (InPreFork[S.Vc])
      continue;
    const double Contribution = S.Prob * clamp01(G->stmt(S.Vc).IterFreq);
    Base[S.Dst] = 1.0 - (1.0 - Base[S.Dst]) * (1.0 - Contribution);
  }

  // Sweep in quasi-topological order; repeat to fixpoint when cyclic.
  const int MaxSweeps = Cyclic ? 100 : 1;
  for (int Sweep = 0; Sweep != MaxSweeps; ++Sweep) {
    double MaxDelta = 0.0;
    for (uint32_t C : Order) {
      double KeepProb = 1.0 - Base[C];
      for (uint32_t PI : InOf[C]) {
        const PropEdge &E = Prop[PI];
        KeepProb *= (1.0 - E.Prob * V[E.Src]);
      }
      const double NewV = clamp01(1.0 - KeepProb);
      MaxDelta = std::max(MaxDelta, std::fabs(NewV - V[C]));
      V[C] = NewV;
    }
    if (MaxDelta < 1e-10)
      break;
  }
}

double ReferenceCostModel::cost(const PartitionSet &InPreFork) const {
  std::vector<double> V;
  propagate(V, InPreFork);
  double Total = 0.0;
  for (uint32_t SI = 0; SI != G->size(); ++SI) {
    if (!Reach[SI])
      continue;
    const LoopStmt &S = G->stmt(SI);
    Total += V[SI] * S.Weight * S.IterFreq;
  }
  return Total;
}

std::vector<double>
ReferenceCostModel::reexecProbabilities(const PartitionSet &InPreFork) const {
  std::vector<double> V;
  propagate(V, InPreFork);
  return V;
}

double ReferenceCostModel::emptyPartitionCost() const {
  return cost(PartitionSet(G->size(), 0));
}

//===----------------------------------------------------------------------===//
// Searches
//===----------------------------------------------------------------------===//

namespace {

/// The original search state over one PartitionSearch's VC graph.
class ReferenceSearch {
public:
  ReferenceSearch(const PartitionSearch &VcGraph,
                  const ReferenceCostModel &Model,
                  const PartitionOptions &Opts)
      : VcGraph(VcGraph), Model(Model), G(Model.depGraph()), Opts(Opts),
        NumNodes(static_cast<uint32_t>(VcGraph.numVcNodes())),
        SizeThreshold(Opts.PreForkSizeFraction * G.dynamicBodyWeight()) {}

  PartitionResult run();
  KwayPartitionResult runKway(const PartitionResult &Base, uint32_t Levels);

private:
  double weightOf(uint32_t StmtIdx) const {
    return G.stmt(StmtIdx).Weight * G.stmt(StmtIdx).IterFreq;
  }
  bool predsPicked(uint32_t NI, const std::vector<uint8_t> &Picked) const {
    for (uint32_t P : VcGraph.nodePreds(NI))
      if (!Picked[P])
        return false;
    return true;
  }
  std::vector<uint32_t> chosenVcs(const std::vector<uint8_t> &Picked) const;
  bool outOfBudget();
  double evaluate(const std::vector<uint8_t> &Marks);
  double lowerBound(const std::vector<uint8_t> &Picked, uint32_t MinNext);
  void search(uint32_t MinNext, std::vector<uint8_t> &Picked,
              std::vector<uint32_t> &UnionClosure, PartitionResult &Best);
  void kwaySearch(uint32_t MinNext, std::vector<uint8_t> &Picked,
                  std::vector<uint32_t> &UnionClosure, double Mult,
                  double Threshold, KwayCutRecord &Best);

  const PartitionSearch &VcGraph;
  const ReferenceCostModel &Model;
  const LoopDepGraph &G;
  PartitionOptions Opts;
  uint32_t NumNodes;
  double SizeThreshold;
  PartitionResult Stats;
};

std::vector<uint32_t>
ReferenceSearch::chosenVcs(const std::vector<uint8_t> &Picked) const {
  std::vector<uint32_t> Vcs;
  for (uint32_t NI = 0; NI != NumNodes; ++NI)
    if (Picked[NI])
      Vcs.insert(Vcs.end(), VcGraph.nodeVcs(NI).begin(),
                 VcGraph.nodeVcs(NI).end());
  std::sort(Vcs.begin(), Vcs.end());
  return Vcs;
}

bool ReferenceSearch::outOfBudget() {
  if (Stats.BudgetExhausted)
    return true;
  if (Stats.NodesVisited >= Opts.MaxSearchNodes) {
    Stats.BudgetExhausted = true;
    return true;
  }
  return false;
}

double ReferenceSearch::evaluate(const std::vector<uint8_t> &Marks) {
  ++Stats.CostEvals;
  PartitionSet P(Marks.begin(), Marks.end());
  return Model.cost(P);
}

double ReferenceSearch::lowerBound(const std::vector<uint8_t> &Picked,
                                   uint32_t MinNext) {
  ++Stats.CostEvals;
  // Hypothetically move every still-addable candidate: costs only shrink
  // as candidates move, so this bounds all descendants from below.
  PartitionSet P(G.size(), 0);
  for (uint32_t NI = 0; NI != NumNodes; ++NI) {
    const bool Hypothetical = NI >= MinNext && VcGraph.nodeMovable(NI);
    if (!Picked[NI] && !Hypothetical)
      continue;
    for (uint32_t Vc : VcGraph.nodeVcs(NI))
      P[Vc] = 1;
  }
  return Model.cost(P);
}

void ReferenceSearch::search(uint32_t MinNext, std::vector<uint8_t> &Picked,
                             std::vector<uint32_t> &UnionClosure,
                             PartitionResult &Best) {
  ++Stats.NodesVisited;

  std::vector<uint8_t> CurMarks(G.size(), 0);
  double CurWeight = 0.0;
  for (uint32_t StmtIdx : UnionClosure) {
    CurMarks[StmtIdx] = 1;
    CurWeight += weightOf(StmtIdx);
  }
  const double Cost = evaluate(CurMarks);
  if (CurWeight <= SizeThreshold + 1e-12 && Cost < Best.Cost - 1e-12) {
    Best.Cost = Cost;
    Best.InPreFork.assign(CurMarks.begin(), CurMarks.end());
    Best.PreForkWeight = CurWeight;
    Best.ChosenVcs = chosenVcs(Picked);
  }

  if (outOfBudget())
    return;

  for (uint32_t Next = MinNext; Next < NumNodes; ++Next) {
    if (!VcGraph.nodeMovable(Next) || !predsPicked(Next, Picked))
      continue;

    // Heuristic 1: pre-fork size threshold.
    double NewWeight = CurWeight;
    std::vector<uint32_t> Added;
    for (uint32_t StmtIdx : VcGraph.nodeClosure(Next))
      if (!CurMarks[StmtIdx]) {
        Added.push_back(StmtIdx);
        NewWeight += weightOf(StmtIdx);
      }
    if (Opts.EnableSizePrune && NewWeight > SizeThreshold + 1e-12) {
      ++Stats.SizePrunes;
      continue;
    }

    // Heuristic 2: monotone lower bound on the subtree's cost.
    if (Opts.EnableLowerBoundPrune) {
      Picked[Next] = 1;
      const double Lb = lowerBound(Picked, Next + 1);
      Picked[Next] = 0;
      if (Lb >= Best.Cost - 1e-12) {
        ++Stats.LowerBoundPrunes;
        continue;
      }
    }

    Picked[Next] = 1;
    for (uint32_t StmtIdx : Added) {
      CurMarks[StmtIdx] = 1;
      UnionClosure.push_back(StmtIdx);
    }
    search(Next + 1, Picked, UnionClosure, Best);
    UnionClosure.resize(UnionClosure.size() - Added.size());
    for (uint32_t StmtIdx : Added)
      CurMarks[StmtIdx] = 0;
    Picked[Next] = 0;

    if (outOfBudget())
      return;
  }
}

PartitionResult ReferenceSearch::run() {
  PartitionResult Best;
  Best.BodyWeight = G.dynamicBodyWeight();
  Best.NumViolationCandidates =
      static_cast<uint32_t>(G.violationCandidates().size());
  if (G.violationCandidates().size() > Opts.MaxViolationCandidates)
    return Best;
  Best.Searched = true;

  Stats = PartitionResult();
  std::vector<uint8_t> Picked(NumNodes, 0);
  std::vector<uint32_t> UnionClosure;
  search(0, Picked, UnionClosure, Best);

  Best.NodesVisited = Stats.NodesVisited;
  Best.SizePrunes = Stats.SizePrunes;
  Best.LowerBoundPrunes = Stats.LowerBoundPrunes;
  Best.CostEvals = Stats.CostEvals;
  Best.BudgetExhausted = Stats.BudgetExhausted;
  if (Best.InPreFork.empty())
    Best.InPreFork.assign(G.size(), 0);
  return Best;
}

// The chain-level search: supersets of the already-picked base nodes,
// minimizing CurWeight + Mult * cost under Threshold. Nodes the previous
// cut picked are committed and skipped.
void ReferenceSearch::kwaySearch(uint32_t MinNext,
                                 std::vector<uint8_t> &Picked,
                                 std::vector<uint32_t> &UnionClosure,
                                 double Mult, double Threshold,
                                 KwayCutRecord &Best) {
  ++Stats.NodesVisited;

  std::vector<uint8_t> CurMarks(G.size(), 0);
  double CurWeight = 0.0;
  for (uint32_t StmtIdx : UnionClosure) {
    CurMarks[StmtIdx] = 1;
    CurWeight += weightOf(StmtIdx);
  }
  const double Cost = evaluate(CurMarks);
  const double J = CurWeight + Mult * Cost;
  if (CurWeight <= Threshold + 1e-12 && J < Best.Objective - 1e-12) {
    Best.Objective = J;
    Best.Cost = Cost;
    Best.PreForkWeight = CurWeight;
    Best.InPreFork.assign(CurMarks.begin(), CurMarks.end());
    Best.ChosenVcs = chosenVcs(Picked);
  }

  if (outOfBudget())
    return;

  for (uint32_t Next = MinNext; Next < NumNodes; ++Next) {
    if (!VcGraph.nodeMovable(Next) || Picked[Next] ||
        !predsPicked(Next, Picked))
      continue;

    double NewWeight = CurWeight;
    std::vector<uint32_t> Added;
    for (uint32_t StmtIdx : VcGraph.nodeClosure(Next))
      if (!CurMarks[StmtIdx]) {
        Added.push_back(StmtIdx);
        NewWeight += weightOf(StmtIdx);
      }
    if (Opts.EnableSizePrune && NewWeight > Threshold + 1e-12) {
      ++Stats.SizePrunes;
      continue;
    }

    if (Opts.EnableLowerBoundPrune) {
      Picked[Next] = 1;
      const double Lb = lowerBound(Picked, Next + 1);
      Picked[Next] = 0;
      if (NewWeight + Mult * Lb >= Best.Objective - 1e-12) {
        ++Stats.LowerBoundPrunes;
        continue;
      }
    }

    Picked[Next] = 1;
    for (uint32_t StmtIdx : Added) {
      CurMarks[StmtIdx] = 1;
      UnionClosure.push_back(StmtIdx);
    }
    kwaySearch(Next + 1, Picked, UnionClosure, Mult, Threshold, Best);
    UnionClosure.resize(UnionClosure.size() - Added.size());
    for (uint32_t StmtIdx : Added)
      CurMarks[StmtIdx] = 0;
    Picked[Next] = 0;

    if (outOfBudget())
      return;
  }
}

KwayPartitionResult ReferenceSearch::runKway(const PartitionResult &Base,
                                             uint32_t Levels) {
  KwayPartitionResult Out;
  Out.Levels = std::max(Levels, 1u);
  if (!Base.Searched)
    return Out;
  Out.Searched = true;

  KwayCutRecord First;
  First.ChosenVcs = Base.ChosenVcs;
  First.InPreFork = Base.InPreFork;
  First.Cost = Base.Cost;
  First.PreForkWeight = Base.PreForkWeight;
  First.Objective = Base.PreForkWeight + Base.Cost;
  Out.Cuts.push_back(std::move(First));
  Out.ChainCost = Base.Cost;

  Stats = PartitionResult();
  // A node is picked iff every one of its VCs is in the cut.
  std::vector<uint8_t> Picked(NumNodes, 0);
  const auto PickFromVcs = [&](const std::vector<uint32_t> &Vcs) {
    std::vector<uint8_t> InCut(G.size(), 0);
    for (uint32_t Vc : Vcs)
      InCut[Vc] = 1;
    for (uint32_t NI = 0; NI != NumNodes; ++NI) {
      bool All = !VcGraph.nodeVcs(NI).empty();
      for (uint32_t Vc : VcGraph.nodeVcs(NI))
        if (!InCut[Vc])
          All = false;
      Picked[NI] = All ? 1 : 0;
    }
  };
  PickFromVcs(Base.ChosenVcs);

  for (uint32_t D = 2; D <= Out.Levels; ++D) {
    const double Mult = static_cast<double>(D);
    const double Threshold = std::min(Base.BodyWeight, Mult * SizeThreshold);
    const KwayCutRecord &Prev = Out.Cuts.back();
    std::vector<uint32_t> UnionClosure;
    for (uint32_t SI = 0; SI != Prev.InPreFork.size(); ++SI)
      if (Prev.InPreFork[SI])
        UnionClosure.push_back(SI);
    KwayCutRecord BestCut;
    kwaySearch(0, Picked, UnionClosure, Mult, Threshold, BestCut);
    PickFromVcs(BestCut.ChosenVcs);
    Out.ChainCost += BestCut.Cost;
    Out.Cuts.push_back(std::move(BestCut));
  }

  Out.NodesVisited = Stats.NodesVisited;
  Out.CostEvals = Stats.CostEvals;
  return Out;
}

} // namespace

PartitionResult spt::referencePartitionSearch(const PartitionSearch &VcGraph,
                                              const ReferenceCostModel &Model,
                                              const PartitionOptions &Opts) {
  return ReferenceSearch(VcGraph, Model, Opts).run();
}

KwayPartitionResult spt::referenceKwaySearch(const PartitionSearch &VcGraph,
                                             const ReferenceCostModel &Model,
                                             const PartitionOptions &Opts,
                                             const PartitionResult &Base,
                                             uint32_t Levels) {
  return ReferenceSearch(VcGraph, Model, Opts).runKway(Base, Levels);
}

LoopDepGraph spt::replicateAcyclic(const LoopDepGraph &G, unsigned Filler,
                                   unsigned K) {
  const uint32_t N = static_cast<uint32_t>(G.size());
  std::vector<LoopStmt> Stmts;
  std::vector<DepEdge> Edges;
  for (unsigned C = 0; C != Filler + K; ++C) {
    for (uint32_t SI = 0; SI != N; ++SI) {
      LoopStmt S = G.stmt(SI);
      S.Id = NoStmt; // Synthetic statements have no source identity.
      S.I = nullptr;
      if (C < Filler)
        S.Movable = false;
      Stmts.push_back(S);
    }
    for (const DepEdge &E : G.edges()) {
      if (!E.Cross && E.Src >= E.Dst)
        continue;
      DepEdge D = E;
      D.Src += C * N;
      D.Dst += C * N;
      Edges.push_back(D);
    }
  }
  return LoopDepGraph::forSynthetic(std::move(Stmts), std::move(Edges));
}

//===- cost/CostModel.cpp - Misspeculation cost model ------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "cost/CostModel.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <queue>

using namespace spt;

namespace {

double clamp01(double X) { return X < 0.0 ? 0.0 : (X > 1.0 ? 1.0 : X); }

/// CSR over (key -> value) pairs emitted in insertion order: Off[k]..Off[k+1]
/// indexes Out with the values of key k, preserving relative order.
void buildCsr(uint32_t NumKeys, const std::vector<std::pair<uint32_t, uint32_t>> &Pairs,
              std::vector<uint32_t> &Out, std::vector<uint32_t> &Off) {
  Off.assign(NumKeys + 1, 0);
  for (const auto &P : Pairs)
    ++Off[P.first + 1];
  for (uint32_t K = 0; K != NumKeys; ++K)
    Off[K + 1] += Off[K];
  Out.resize(Pairs.size());
  std::vector<uint32_t> Cursor(Off.begin(), Off.end() - 1);
  for (const auto &P : Pairs)
    Out[Cursor[P.first]++] = P.second;
}

} // namespace

MisspecCostModel::MisspecCostModel(const LoopDepGraph &G) : G(&G) {
  const uint32_t N = static_cast<uint32_t>(G.size());

  // Seeds: every cross-iteration flow edge, grouped by violation candidate.
  for (const DepEdge &E : G.edges())
    if (E.Cross && isFlowDep(E.Kind) && E.Prob > 1e-9)
      Seeds.push_back(CrossSeed{E.Src, E.Dst, E.Prob});

  // Reachability: BFS from seed targets over intra flow+control edges.
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

  // Propagation edges among reachable nodes.
  for (const DepEdge &E : G.edges()) {
    if (E.Cross || !(isFlowDep(E.Kind) || E.Kind == DepKind::Control))
      continue;
    if (E.Prob <= 1e-9 || !Reach[E.Src] || !Reach[E.Dst])
      continue;
    Prop.push_back(PropEdge{E.Src, E.Dst, E.Prob});
  }

  // Out-edge CSR over the propagation edges, in edge order.
  {
    std::vector<std::pair<uint32_t, uint32_t>> Pairs;
    Pairs.reserve(Prop.size());
    for (uint32_t PI = 0; PI != Prop.size(); ++PI)
      Pairs.emplace_back(Prop[PI].Src, PI);
    buildCsr(N, Pairs, PropOut, PropOutOff);
  }

  // Kahn topological order over the reachable propagation subgraph,
  // popping the smallest ready statement for determinism.
  std::vector<uint32_t> InDegree(N, 0);
  for (const PropEdge &E : Prop)
    ++InDegree[E.Dst];
  std::vector<uint8_t> Emitted(N, 0);
  std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<uint32_t>>
      Heap;
  for (uint32_t SI = 0; SI != N; ++SI)
    if (Reach[SI] && InDegree[SI] == 0)
      Heap.push(SI);
  while (!Heap.empty()) {
    const uint32_t Cur = Heap.top();
    Heap.pop();
    Order.push_back(Cur);
    Emitted[Cur] = 1;
    for (uint32_t K = PropOutOff[Cur]; K != PropOutOff[Cur + 1]; ++K) {
      const PropEdge &E = Prop[PropOut[K]];
      if (--InDegree[E.Dst] == 0)
        Heap.push(E.Dst);
    }
  }
  for (uint32_t SI = 0; SI != N; ++SI)
    if (Reach[SI] && !Emitted[SI]) {
      Order.push_back(SI); // Member of a cycle.
      Cyclic = true;
    }

  buildDerivedStructures();
}

void MisspecCostModel::buildDerivedStructures() {
  const uint32_t N = static_cast<uint32_t>(G->size());

  SeedContribution.resize(Seeds.size());
  for (uint32_t SI = 0; SI != Seeds.size(); ++SI)
    SeedContribution[SI] =
        Seeds[SI].Prob * violationProbability(Seeds[SI].Vc);

  {
    std::vector<std::pair<uint32_t, uint32_t>> ByDst, ByVc;
    ByDst.reserve(Seeds.size());
    ByVc.reserve(Seeds.size());
    for (uint32_t SI = 0; SI != Seeds.size(); ++SI) {
      ByDst.emplace_back(Seeds[SI].Dst, SI);
      ByVc.emplace_back(Seeds[SI].Vc, SI);
    }
    buildCsr(N, ByDst, SeedsOfDst, SeedsOfDstOff);
    buildCsr(N, ByVc, SeedsOfVc, SeedsOfVcOff);
  }

  for (uint32_t SI = 0; SI != N; ++SI)
    if (Reach[SI])
      ReachList.push_back(SI);

  OrderPos.assign(N, ~0u);
  for (uint32_t Pos = 0; Pos != Order.size(); ++Pos)
    OrderPos[Order[Pos]] = Pos;

  ReachPos.assign(N, ~0u);
  for (uint32_t Pos = 0; Pos != ReachList.size(); ++Pos)
    ReachPos[ReachList[Pos]] = Pos;

  // Incoming propagation edges per destination, in edge order — the
  // order every propagation folds a statement's product in.
  {
    std::vector<std::pair<uint32_t, uint32_t>> ByDst;
    ByDst.reserve(Prop.size());
    for (uint32_t PI = 0; PI != Prop.size(); ++PI)
      ByDst.emplace_back(Prop[PI].Dst, PI);
    std::vector<uint32_t> InProp;
    buildCsr(N, ByDst, InProp, InEdgeOff);
    InEdges.resize(InProp.size());
    for (size_t K = 0; K != InProp.size(); ++K)
      InEdges[K] = InEdge{Prop[InProp[K]].Src, Prop[InProp[K]].Prob};
  }

  ReachW.resize(ReachList.size());
  ReachF.resize(ReachList.size());
  for (uint32_t Pos = 0; Pos != ReachList.size(); ++Pos) {
    const LoopStmt &S = G->stmt(ReachList[Pos]);
    ReachW[Pos] = S.Weight;
    ReachF[Pos] = S.IterFreq;
  }

  AllSeedDsts.reserve(Seeds.size());
  {
    std::vector<uint8_t> SeenDst(N, 0);
    for (const CrossSeed &S : Seeds)
      if (!SeenDst[S.Dst]) {
        SeenDst[S.Dst] = 1;
        AllSeedDsts.push_back(S.Dst);
      }
    std::sort(AllSeedDsts.begin(), AllSeedDsts.end());
  }
}

double MisspecCostModel::violationProbability(uint32_t StmtIdx) const {
  return clamp01(G->stmt(StmtIdx).IterFreq);
}

//===----------------------------------------------------------------------===//
// One-shot evaluation
//===----------------------------------------------------------------------===//

double MisspecCostModel::cost(const PartitionSet &InPreFork) const {
  Scratch S;
  initScratch(S, InPreFork);
  return S.Cost;
}

std::vector<double>
MisspecCostModel::reexecProbabilities(const PartitionSet &InPreFork) const {
  Scratch S;
  initScratch(S, InPreFork);
  return std::move(S.V);
}

double MisspecCostModel::emptyPartitionCost() const {
  return cost(PartitionSet(G->size(), 0));
}

//===----------------------------------------------------------------------===//
// Scratch path (allocation-free, incremental)
//===----------------------------------------------------------------------===//

double MisspecCostModel::recomputeBase(uint32_t Dst,
                                       const uint8_t *InPre) const {
  // Folds Dst's seed contributions in global seed order — the same order
  // (and therefore the same rounding) as propagateFull()'s single pass
  // over all seeds, because contributions to distinct targets commute
  // freely.
  double B = 0.0;
  for (uint32_t K = SeedsOfDstOff[Dst]; K != SeedsOfDstOff[Dst + 1]; ++K) {
    const uint32_t SI = SeedsOfDst[K];
    const CrossSeed &S = Seeds[SI];
    if (InPre[S.Vc])
      continue;
    B = 1.0 - (1.0 - B) * (1.0 - SeedContribution[SI]);
  }
  return B;
}

void MisspecCostModel::propagateFull(std::vector<double> &V,
                                     std::vector<double> &Base,
                                     const uint8_t *InPre) const {
  std::fill(V.begin(), V.end(), 0.0);
  std::fill(Base.begin(), Base.end(), 0.0);
  for (uint32_t SI = 0; SI != Seeds.size(); ++SI) {
    const CrossSeed &S = Seeds[SI];
    if (InPre[S.Vc])
      continue;
    Base[S.Dst] = 1.0 - (1.0 - Base[S.Dst]) * (1.0 - SeedContribution[SI]);
  }
  const int MaxSweeps = Cyclic ? 100 : 1;
  for (int Sweep = 0; Sweep != MaxSweeps; ++Sweep) {
    double MaxDelta = 0.0;
    for (uint32_t C : Order) {
      double KeepProb = 1.0 - Base[C];
      for (uint32_t K = InEdgeOff[C]; K != InEdgeOff[C + 1]; ++K)
        KeepProb *= (1.0 - InEdges[K].Prob * V[InEdges[K].Src]);
      const double NewV = clamp01(1.0 - KeepProb);
      MaxDelta = std::max(MaxDelta, std::fabs(NewV - V[C]));
      V[C] = NewV;
    }
    if (MaxDelta < 1e-10)
      break;
  }
}

double MisspecCostModel::refillCostPrefix(Scratch &S, uint32_t FromPos) const {
  const uint32_t NumReach = static_cast<uint32_t>(ReachList.size());
  const double *V = S.V.data();
  double *Prefix = S.CostPrefix.data();
  double Total = Prefix[FromPos];
  for (uint32_t K = FromPos; K != NumReach; ++K) {
    Total += V[ReachList[K]] * ReachW[K] * ReachF[K];
    Prefix[K + 1] = Total;
  }
  return Total;
}

void MisspecCostModel::initScratch(Scratch &S,
                                   const PartitionSet &InPreFork) const {
  assert(InPreFork.size() == G->size() && "partition size mismatch");
  const size_t N = G->size();
  if (!S.InPre.empty())
    ++S.Stat.Reuses;
  ++S.Stat.Inits;
  S.V.assign(N, 0.0);
  S.Base.assign(N, 0.0);
  S.InPre.assign(InPreFork.begin(), InPreFork.end());
  S.VTrail.clear();
  S.BaseTrail.clear();
  S.PreTrail.clear();
  S.PrefixTrail.clear();
  S.Frames.clear();
  propagateFull(S.V, S.Base, S.InPre.data());
  S.CostPrefix.assign(ReachList.size() + 1, 0.0);
  S.PrefixValidTo = static_cast<uint32_t>(ReachList.size());
  S.Cost = refillCostPrefix(S, 0);
}

MisspecCostModel::TogglePlan
MisspecCostModel::planToggle(std::vector<uint32_t> Vcs) const {
  TogglePlan Plan;
  Plan.Vcs = std::move(Vcs);
  if (Cyclic)
    return Plan; // Toggles fall back to full re-propagation anyway.

  const uint32_t N = static_cast<uint32_t>(G->size());
  std::vector<uint8_t> Mark(N, 0);
  std::vector<uint32_t> Work;
  for (uint32_t Vc : Plan.Vcs)
    for (uint32_t K = SeedsOfVcOff[Vc]; K != SeedsOfVcOff[Vc + 1]; ++K) {
      const uint32_t Dst = Seeds[SeedsOfVc[K]].Dst;
      if (!Mark[Dst]) {
        Mark[Dst] = 1;
        Plan.BaseDsts.push_back(Dst);
        Work.push_back(Dst);
      }
    }
  std::sort(Plan.BaseDsts.begin(), Plan.BaseDsts.end());

  // Forward closure over the propagation edges: every statement whose
  // re-execution probability can change when these seeds change.
  Plan.Cone = Plan.BaseDsts;
  while (!Work.empty()) {
    const uint32_t Cur = Work.back();
    Work.pop_back();
    for (uint32_t K = PropOutOff[Cur]; K != PropOutOff[Cur + 1]; ++K) {
      const uint32_t Dst = Prop[PropOut[K]].Dst;
      if (!Mark[Dst]) {
        Mark[Dst] = 1;
        Plan.Cone.push_back(Dst);
        Work.push_back(Dst);
      }
    }
  }
  std::sort(Plan.Cone.begin(), Plan.Cone.end(),
            [this](uint32_t A, uint32_t B) {
              return OrderPos[A] < OrderPos[B];
            });
  Plan.FirstReachPos = static_cast<uint32_t>(ReachList.size());
  for (uint32_t C : Plan.Cone)
    Plan.FirstReachPos = std::min(Plan.FirstReachPos, ReachPos[C]);
  return Plan;
}

double MisspecCostModel::refreshCost(Scratch &S) const {
  const uint32_t NumReach = static_cast<uint32_t>(ReachList.size());
  if (S.PrefixValidTo != NumReach) {
    const uint32_t From = S.PrefixValidTo;
    assert(!S.Frames.empty() && "stale prefix without a commit frame");
    assert(S.Frames.back().PrefixPos == NumReach &&
           "at most one refresh per commit frame");
    S.Frames.back().PrefixPos = From;
    const uint32_t Count = NumReach - From;
    const size_t PBase = S.PrefixTrail.size();
    S.PrefixTrail.resize(PBase + Count);
    std::memcpy(S.PrefixTrail.data() + PBase, S.CostPrefix.data() + From + 1,
                Count * sizeof(double));
    S.Cost = refillCostPrefix(S, From);
    S.PrefixValidTo = NumReach;
  }
  return S.CostPrefix[NumReach];
}

void MisspecCostModel::applyCommittedDelta(Scratch &S, const TogglePlan &Plan,
                                           bool Refresh) const {
  if (Cyclic) {
    ++S.Stat.FullCommits;
    // Record the full solution (cycles are rare), then re-propagate.
    for (uint32_t C : Order)
      S.VTrail.push_back(Scratch::Saved{C, S.V[C]});
    for (uint32_t Dst : AllSeedDsts)
      S.BaseTrail.push_back(Scratch::Saved{Dst, S.Base[Dst]});
    propagateFull(S.V, S.Base, S.InPre.data());
    S.PrefixValidTo = 0;
  } else {
    ++S.Stat.ConeCommits;
    const size_t BBase = S.BaseTrail.size();
    S.BaseTrail.resize(BBase + Plan.BaseDsts.size());
    Scratch::Saved *BT = S.BaseTrail.data() + BBase;
    for (uint32_t Dst : Plan.BaseDsts) {
      *BT++ = Scratch::Saved{Dst, S.Base[Dst]};
      S.Base[Dst] = recomputeBase(Dst, S.InPre.data());
    }
    const size_t VBase = S.VTrail.size();
    S.VTrail.resize(VBase + Plan.Cone.size());
    Scratch::Saved *VT = S.VTrail.data() + VBase;
    double *V = S.V.data();
    for (uint32_t C : Plan.Cone) {
      *VT++ = Scratch::Saved{C, V[C]};
      double KeepProb = 1.0 - S.Base[C];
      for (uint32_t K = InEdgeOff[C]; K != InEdgeOff[C + 1]; ++K)
        KeepProb *= (1.0 - InEdges[K].Prob * V[InEdges[K].Src]);
      V[C] = clamp01(1.0 - KeepProb);
    }
    // Terms below the cone's first reachable position are unchanged, so
    // their stored partials still match a cold sum; only the watermark
    // above it drops.
    S.PrefixValidTo = std::min(S.PrefixValidTo, Plan.FirstReachPos);
  }
  if (Refresh)
    refreshCost(S);
}

namespace {
/// Pushes the undo frame every commit entry point starts with.
void pushFrame(MisspecCostModel::Scratch &S) {
  S.Frames.push_back(MisspecCostModel::Scratch::Frame{
      static_cast<uint32_t>(S.VTrail.size()),
      static_cast<uint32_t>(S.BaseTrail.size()),
      static_cast<uint32_t>(S.PreTrail.size()),
      static_cast<uint32_t>(S.CostPrefix.size() - 1), S.PrefixValidTo,
      S.Cost});
  S.Stat.MaxDepth = std::max<uint64_t>(S.Stat.MaxDepth, S.Frames.size());
}
} // namespace

void MisspecCostModel::commitToggle(Scratch &S, const TogglePlan &Plan) const {
  assert(S.InPre.size() == G->size() && "scratch not initialized");
  pushFrame(S);
  for (uint32_t Vc : Plan.Vcs) {
    assert(!S.InPre[Vc] && "toggled candidate already committed");
    S.PreTrail.push_back(Scratch::SavedPre{Vc, S.InPre[Vc]});
    S.InPre[Vc] = 1;
  }
  applyCommittedDelta(S, Plan, /*Refresh=*/true);
}

void MisspecCostModel::commitUntoggleDeferred(Scratch &S,
                                              const TogglePlan &Plan) const {
  assert(S.InPre.size() == G->size() && "scratch not initialized");
  pushFrame(S);
  for (uint32_t Vc : Plan.Vcs) {
    assert(S.InPre[Vc] && "untoggled candidate not committed");
    S.PreTrail.push_back(Scratch::SavedPre{Vc, S.InPre[Vc]});
    S.InPre[Vc] = 0;
  }
  applyCommittedDelta(S, Plan, /*Refresh=*/false);
}

void MisspecCostModel::undoToggle(Scratch &S) const {
  assert(!S.Frames.empty() && "undoToggle without a matching commit");
  ++S.Stat.Undos;
  const Scratch::Frame F = S.Frames.back();
  S.Frames.pop_back();
  for (size_t K = S.VTrail.size(); K != F.VSize; --K)
    S.V[S.VTrail[K - 1].Idx] = S.VTrail[K - 1].Old;
  S.VTrail.resize(F.VSize);
  for (size_t K = S.BaseTrail.size(); K != F.BaseSize; --K)
    S.Base[S.BaseTrail[K - 1].Idx] = S.BaseTrail[K - 1].Old;
  S.BaseTrail.resize(F.BaseSize);
  for (size_t K = S.PreTrail.size(); K != F.PreSize; --K)
    S.InPre[S.PreTrail[K - 1].Idx] = S.PreTrail[K - 1].Old;
  S.PreTrail.resize(F.PreSize);
  const uint32_t PrefixCount =
      static_cast<uint32_t>(ReachList.size()) - F.PrefixPos;
  const size_t PrefixBase = S.PrefixTrail.size() - PrefixCount;
  std::memcpy(S.CostPrefix.data() + F.PrefixPos + 1,
              S.PrefixTrail.data() + PrefixBase,
              PrefixCount * sizeof(double));
  S.PrefixTrail.resize(PrefixBase);
  S.PrefixValidTo = F.SavedValidTo;
  S.Cost = F.OldCost;
}

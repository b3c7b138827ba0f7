//===- partition/Partition.cpp - Optimal SPT loop partitioning -------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "partition/Partition.h"

#include "support/Debug.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <queue>

using namespace spt;

PartitionSearch::PartitionSearch(const LoopDepGraph &G,
                                 const MisspecCostModel &Model,
                                 const PartitionOptions &Opts)
    : G(G), Model(Model), Opts(Opts) {
  SizeThreshold = Opts.PreForkSizeFraction * G.dynamicBodyWeight();
  buildVcGraph();
  if (G.violationCandidates().size() <= Opts.MaxViolationCandidates)
    buildPlans();
}

void PartitionSearch::buildVcGraph() {
  const std::vector<uint32_t> &Vcs = G.violationCandidates();
  const uint32_t NumVcs = static_cast<uint32_t>(Vcs.size());
  const uint32_t NumStmts = static_cast<uint32_t>(G.size());

  // Statement-level move closure of each violation candidate: all
  // intra-iteration predecessors, transitively, plus — for any definition
  // that moves — every *earlier* definition of the same register on an
  // intra-iteration path (the transformation cannot realize an un-moved
  // definition ordered before a moved one; unrolled clones hit this).
  // Registers with moved and later un-moved definitions remain allowed:
  // that is the SVP prediction/recovery pattern.
  std::map<Reg, std::vector<uint32_t>> DefsOfReg;
  for (uint32_t SI = 0; SI != NumStmts; ++SI)
    if (G.stmt(SI).I && G.stmt(SI).I->Dst != NoReg)
      DefsOfReg[G.stmt(SI).I->Dst].push_back(SI);

  std::vector<std::vector<uint32_t>> Closures(NumVcs);
  std::vector<int32_t> VcOfStmt(NumStmts, -1);
  for (uint32_t V = 0; V != NumVcs; ++V)
    VcOfStmt[Vcs[V]] = static_cast<int32_t>(V);

  for (uint32_t V = 0; V != NumVcs; ++V) {
    std::vector<uint8_t> Seen(NumStmts, 0);
    std::vector<uint32_t> Work = {Vcs[V]};
    Seen[Vcs[V]] = 1;
    while (!Work.empty()) {
      const uint32_t Cur = Work.back();
      Work.pop_back();
      Closures[V].push_back(Cur);
      if (G.stmt(Cur).I && G.stmt(Cur).I->Dst != NoReg)
        for (uint32_t Earlier : DefsOfReg[G.stmt(Cur).I->Dst])
          if (!Seen[Earlier] && G.canPrecedeIntra(Earlier, Cur)) {
            Seen[Earlier] = 1;
            Work.push_back(Earlier);
          }
      for (uint32_t EI : G.inEdges(Cur)) {
        const DepEdge &E = G.edges()[EI];
        if (E.Cross || Seen[E.Src])
          continue;
        // Register anti/output dependences do not constrain motion: the
        // SPT transformation breaks the overlapped live ranges with
        // temporary variables (paper Figures 2, 10 and 11). Memory has no
        // rename, so memory anti/output edges do constrain.
        if (E.Kind == DepKind::AntiReg || E.Kind == DepKind::OutReg)
          continue;
        Seen[E.Src] = 1;
        Work.push_back(E.Src);
      }
    }
    std::sort(Closures[V].begin(), Closures[V].end());
  }

  // VC-level dependence: u -> v when u's statement is inside v's closure.
  std::vector<std::vector<uint32_t>> VcPreds(NumVcs);
  for (uint32_t V = 0; V != NumVcs; ++V)
    for (uint32_t StmtIdx : Closures[V]) {
      const int32_t U = VcOfStmt[StmtIdx];
      if (U >= 0 && static_cast<uint32_t>(U) != V)
        VcPreds[V].push_back(static_cast<uint32_t>(U));
    }

  // Strongly-connected components (iterative Tarjan) so cyclic candidate
  // groups move all-or-nothing.
  std::vector<int32_t> Comp(NumVcs, -1);
  {
    std::vector<uint32_t> Index(NumVcs, ~0u), Low(NumVcs, 0);
    std::vector<uint8_t> OnStack(NumVcs, 0);
    std::vector<uint32_t> Stack;
    uint32_t NextIndex = 0;
    int32_t NextComp = 0;

    // Successor lists (reverse of preds).
    std::vector<std::vector<uint32_t>> VcSuccs(NumVcs);
    for (uint32_t V = 0; V != NumVcs; ++V)
      for (uint32_t P : VcPreds[V])
        VcSuccs[P].push_back(V);

    struct TarjanFrame {
      uint32_t Node;
      size_t NextSucc;
    };
    for (uint32_t Root = 0; Root != NumVcs; ++Root) {
      if (Index[Root] != ~0u)
        continue;
      std::vector<TarjanFrame> Frames = {{Root, 0}};
      Index[Root] = Low[Root] = NextIndex++;
      Stack.push_back(Root);
      OnStack[Root] = 1;
      while (!Frames.empty()) {
        TarjanFrame &F = Frames.back();
        if (F.NextSucc < VcSuccs[F.Node].size()) {
          const uint32_t S = VcSuccs[F.Node][F.NextSucc++];
          if (Index[S] == ~0u) {
            Index[S] = Low[S] = NextIndex++;
            Stack.push_back(S);
            OnStack[S] = 1;
            Frames.push_back(TarjanFrame{S, 0});
          } else if (OnStack[S]) {
            Low[F.Node] = std::min(Low[F.Node], Index[S]);
          }
          continue;
        }
        if (Low[F.Node] == Index[F.Node]) {
          for (;;) {
            const uint32_t W = Stack.back();
            Stack.pop_back();
            OnStack[W] = 0;
            Comp[W] = NextComp;
            if (W == F.Node)
              break;
          }
          ++NextComp;
        }
        const uint32_t DoneNode = F.Node;
        Frames.pop_back();
        if (!Frames.empty())
          Low[Frames.back().Node] =
              std::min(Low[Frames.back().Node], Low[DoneNode]);
      }
    }

    // Build condensed nodes.
    const int32_t NumComps = NextComp;
    std::vector<VcNode> Condensed(static_cast<size_t>(NumComps));
    for (uint32_t V = 0; V != NumVcs; ++V) {
      VcNode &N = Condensed[static_cast<size_t>(Comp[V])];
      N.Vcs.push_back(Vcs[V]);
      for (uint32_t StmtIdx : Closures[V])
        N.Closure.push_back(StmtIdx);
    }
    for (VcNode &N : Condensed) {
      std::sort(N.Closure.begin(), N.Closure.end());
      N.Closure.erase(std::unique(N.Closure.begin(), N.Closure.end()),
                      N.Closure.end());
      for (uint32_t StmtIdx : N.Closure) {
        N.ClosureWeight +=
            G.stmt(StmtIdx).Weight * G.stmt(StmtIdx).IterFreq;
        if (!G.stmt(StmtIdx).Movable)
          N.Movable = false;
      }
    }
    // Condensed predecessor edges.
    for (uint32_t V = 0; V != NumVcs; ++V)
      for (uint32_t P : VcPreds[V])
        if (Comp[P] != Comp[V])
          Condensed[static_cast<size_t>(Comp[V])].Preds.push_back(
              static_cast<uint32_t>(Comp[P]));
    for (VcNode &N : Condensed) {
      std::sort(N.Preds.begin(), N.Preds.end());
      N.Preds.erase(std::unique(N.Preds.begin(), N.Preds.end()),
                    N.Preds.end());
    }

    // Topological sort (Kahn, smallest-first via a min-heap — the ready
    // set pops in the same order the retired min_element scan produced).
    std::vector<uint32_t> InDeg(Condensed.size(), 0);
    std::vector<std::vector<uint32_t>> Succ(Condensed.size());
    for (uint32_t CI = 0; CI != Condensed.size(); ++CI)
      for (uint32_t P : Condensed[CI].Preds) {
        ++InDeg[CI];
        Succ[P].push_back(CI);
      }
    std::priority_queue<uint32_t, std::vector<uint32_t>,
                        std::greater<uint32_t>>
        Ready;
    for (uint32_t CI = 0; CI != Condensed.size(); ++CI)
      if (InDeg[CI] == 0)
        Ready.push(CI);
    std::vector<uint32_t> TopoOrder;
    while (!Ready.empty()) {
      const uint32_t Cur = Ready.top();
      Ready.pop();
      TopoOrder.push_back(Cur);
      for (uint32_t S : Succ[Cur])
        if (--InDeg[S] == 0)
          Ready.push(S);
    }
    assert(TopoOrder.size() == Condensed.size() &&
           "condensation must be acyclic");

    // Emit nodes in topological order with remapped pred indices.
    std::vector<uint32_t> NewIndex(Condensed.size(), 0);
    for (uint32_t Pos = 0; Pos != TopoOrder.size(); ++Pos)
      NewIndex[TopoOrder[Pos]] = Pos;
    Nodes.resize(Condensed.size());
    for (uint32_t CI = 0; CI != Condensed.size(); ++CI) {
      VcNode N = std::move(Condensed[CI]);
      for (uint32_t &P : N.Preds)
        P = NewIndex[P];
      std::sort(N.Preds.begin(), N.Preds.end());
      Nodes[NewIndex[CI]] = std::move(N);
    }
  }
}

void PartitionSearch::buildPlans() {
  NodePlans.resize(Nodes.size());
  for (size_t NI = 0; NI != Nodes.size(); ++NI)
    NodePlans[NI] = Model.planToggle(Nodes[NI].Vcs);
  std::vector<uint32_t> Acc;
  for (const VcNode &N : Nodes)
    if (N.Movable)
      Acc.insert(Acc.end(), N.Vcs.begin(), N.Vcs.end());
  AllMovablePlan = Model.planToggle(std::move(Acc));
}

bool PartitionSearch::outOfBudget() {
  if (Stats.BudgetExhausted)
    return true;
  if (Stats.NodesVisited >= Opts.MaxSearchNodes) {
    Stats.BudgetExhausted = true;
    return true;
  }
  // NodesVisited is 1 at the first check (incremented on node entry), so
  // compare against 1 mod stride or a short search never reads the clock.
  // The shared CancelToken rides the same stride: it is the request-level
  // deadline, and checking it here is what lets a batch deadline stop a
  // search mid-tree instead of only between loops.
  if ((DeadlineNs != 0 || Opts.Cancel) &&
      Stats.NodesVisited % DeadlineCheckStride == 1) {
    if (isCancelled(Opts.Cancel)) {
      Stats.BudgetExhausted = true;
      return true;
    }
    if (DeadlineNs != 0) {
      const uint64_t NowNs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
      if (NowNs >= DeadlineNs) {
        Stats.BudgetExhausted = true;
        return true;
      }
    }
  }
  return false;
}

void PartitionSearch::recordIncumbent(const std::vector<uint8_t> &Picked,
                                      const std::vector<uint8_t> &CurMarks,
                                      double Cost, double CurWeight,
                                      PartitionResult &Best) const {
  if (!(CurWeight <= SizeThreshold + 1e-12 && Cost < Best.Cost - 1e-12))
    return;
  Best.Cost = Cost;
  Best.InPreFork.assign(CurMarks.begin(), CurMarks.end());
  Best.PreForkWeight = CurWeight;
  Best.ChosenVcs.clear();
  for (uint32_t NI = 0; NI != Nodes.size(); ++NI)
    if (Picked[NI])
      Best.ChosenVcs.insert(Best.ChosenVcs.end(), Nodes[NI].Vcs.begin(),
                            Nodes[NI].Vcs.end());
  std::sort(Best.ChosenVcs.begin(), Best.ChosenVcs.end());
}

//===----------------------------------------------------------------------===//
// Base search
//===----------------------------------------------------------------------===//

void PartitionSearch::searchFast(uint32_t MinNext,
                                 std::vector<uint8_t> &Picked,
                                 PartitionResult &Best) {
  ++Stats.NodesVisited;

  // The committed scratch already holds this node's partition and cost
  // (seeded by initScratch at the root, by commitToggle on descend).
  recordIncumbent(Picked, Marks, Scratch.Cost, Weight, Best);

  if (outOfBudget())
    return;

  // LbScratch invariant: at each cursor position it holds committed ∪
  // movable-suffix(Next), so the lower-bound probe below is a cached
  // read. Moving past a movable node (for any reason — preds unmet,
  // either prune, or a completed descend) advances the scratch with one
  // cone-local un-toggle; all advances are undone before returning so
  // the caller's suffix state reappears.
  uint32_t LbAdvances = 0;
  const auto AdvanceLb = [&](uint32_t Next) {
    if (Opts.EnableLowerBoundPrune) {
      // Deferred: the cost tail re-sum settles at the next probe, once
      // for the whole run of advances since the previous one.
      Model.commitUntoggleDeferred(LbScratch, NodePlans[Next]);
      ++LbAdvances;
    }
  };

  for (uint32_t Next = MinNext; Next < Nodes.size(); ++Next) {
    const VcNode &N = Nodes[Next];
    if (!N.Movable)
      continue;
    bool PredsSatisfied = true;
    for (uint32_t P : N.Preds)
      if (!Picked[P]) {
        PredsSatisfied = false;
        break;
      }
    if (!PredsSatisfied) {
      AdvanceLb(Next);
      continue;
    }

    // Heuristic 1: pre-fork size threshold. The newly added closure
    // statements go onto the flat AddedBuf stack (popped on backtrack).
    const size_t AddedBase = AddedBuf.size();
    double NewWeight = Weight;
    for (uint32_t StmtIdx : N.Closure)
      if (!Marks[StmtIdx]) {
        AddedBuf.push_back(StmtIdx);
        NewWeight += G.stmt(StmtIdx).Weight * G.stmt(StmtIdx).IterFreq;
      }
    if (Opts.EnableSizePrune && NewWeight > SizeThreshold + 1e-12) {
      AddedBuf.resize(AddedBase);
      ++Stats.SizePrunes;
      AdvanceLb(Next);
      continue;
    }

    // Heuristic 2: monotone lower bound on the subtree's cost. The
    // still-addable candidates at Next are exactly the movable suffix,
    // whose cost the sliding scratch already holds — bit-identical to
    // evaluating committed ∪ suffix afresh.
    if (Opts.EnableLowerBoundPrune) {
      ++Stats.CostEvals;
      const double Lb = Model.refreshCost(LbScratch);
      if (Lb >= Best.Cost - 1e-12) {
        AddedBuf.resize(AddedBase);
        ++Stats.LowerBoundPrunes;
        AdvanceLb(Next);
        continue;
      }
    }

    // Descend. LbScratch needs no update: the child's committed ∪
    // suffix(Next + 1) is the partition it already holds.
    Picked[Next] = 1;
    for (size_t K = AddedBase; K != AddedBuf.size(); ++K)
      Marks[AddedBuf[K]] = 1;
    const double OldWeight = Weight;
    Weight = NewWeight;
    ++Stats.CostEvals;
    Model.commitToggle(Scratch, NodePlans[Next]);
    searchFast(Next + 1, Picked, Best);
    Model.undoToggle(Scratch);
    Weight = OldWeight;
    for (size_t K = AddedBase; K != AddedBuf.size(); ++K)
      Marks[AddedBuf[K]] = 0;
    AddedBuf.resize(AddedBase);
    Picked[Next] = 0;
    AdvanceLb(Next);

    if (outOfBudget())
      break;
  }

  for (; LbAdvances != 0; --LbAdvances)
    Model.undoToggle(LbScratch);
}

//===----------------------------------------------------------------------===//
// K-way chain search (machines with more than one speculative core)
//===----------------------------------------------------------------------===//

void PartitionSearch::recordKwayIncumbent(
    const std::vector<uint8_t> &Picked, const std::vector<uint8_t> &CurMarks,
    double Cost, double CurWeight, double Mult, double Threshold,
    KwayCutRecord &Best) const {
  const double J = CurWeight + Mult * Cost;
  if (!(CurWeight <= Threshold + 1e-12 && J < Best.Objective - 1e-12))
    return;
  Best.Objective = J;
  Best.Cost = Cost;
  Best.PreForkWeight = CurWeight;
  Best.InPreFork.assign(CurMarks.begin(), CurMarks.end());
  Best.ChosenVcs.clear();
  for (uint32_t NI = 0; NI != Nodes.size(); ++NI)
    if (Picked[NI])
      Best.ChosenVcs.insert(Best.ChosenVcs.end(), Nodes[NI].Vcs.begin(),
                            Nodes[NI].Vcs.end());
  std::sort(Best.ChosenVcs.begin(), Best.ChosenVcs.end());
}

// Mirrors searchFast: the committed Scratch holds the current node's
// partition, LbScratch slides over the movable *unpicked* suffix, and the
// lower-bound prune compares NewWeight + Mult * cost-lower-bound against
// the incumbent objective (weights only grow and costs only shrink along
// a branch, so the bound is sound for the chain objective too). Nodes the
// base cut already picked are committed, not part of the suffix, and are
// skipped without an LbScratch advance.
void PartitionSearch::kwaySearchFast(uint32_t MinNext,
                                     std::vector<uint8_t> &Picked,
                                     double Mult, double Threshold,
                                     KwayCutRecord &Best) {
  ++Stats.NodesVisited;

  recordKwayIncumbent(Picked, Marks, Scratch.Cost, Weight, Mult, Threshold,
                      Best);

  if (outOfBudget())
    return;

  uint32_t LbAdvances = 0;
  const auto AdvanceLb = [&](uint32_t Next) {
    if (Opts.EnableLowerBoundPrune) {
      Model.commitUntoggleDeferred(LbScratch, NodePlans[Next]);
      ++LbAdvances;
    }
  };

  for (uint32_t Next = MinNext; Next < Nodes.size(); ++Next) {
    const VcNode &N = Nodes[Next];
    if (!N.Movable || Picked[Next])
      continue;
    bool PredsSatisfied = true;
    for (uint32_t P : N.Preds)
      if (!Picked[P]) {
        PredsSatisfied = false;
        break;
      }
    if (!PredsSatisfied) {
      AdvanceLb(Next);
      continue;
    }

    const size_t AddedBase = AddedBuf.size();
    double NewWeight = Weight;
    for (uint32_t StmtIdx : N.Closure)
      if (!Marks[StmtIdx]) {
        AddedBuf.push_back(StmtIdx);
        NewWeight += G.stmt(StmtIdx).Weight * G.stmt(StmtIdx).IterFreq;
      }
    if (Opts.EnableSizePrune && NewWeight > Threshold + 1e-12) {
      AddedBuf.resize(AddedBase);
      ++Stats.SizePrunes;
      AdvanceLb(Next);
      continue;
    }

    if (Opts.EnableLowerBoundPrune) {
      ++Stats.CostEvals;
      const double LbJ = NewWeight + Mult * Model.refreshCost(LbScratch);
      if (LbJ >= Best.Objective - 1e-12) {
        AddedBuf.resize(AddedBase);
        ++Stats.LowerBoundPrunes;
        AdvanceLb(Next);
        continue;
      }
    }

    Picked[Next] = 1;
    for (size_t K = AddedBase; K != AddedBuf.size(); ++K)
      Marks[AddedBuf[K]] = 1;
    const double OldWeight = Weight;
    Weight = NewWeight;
    ++Stats.CostEvals;
    Model.commitToggle(Scratch, NodePlans[Next]);
    kwaySearchFast(Next + 1, Picked, Mult, Threshold, Best);
    Model.undoToggle(Scratch);
    Weight = OldWeight;
    for (size_t K = AddedBase; K != AddedBuf.size(); ++K)
      Marks[AddedBuf[K]] = 0;
    AddedBuf.resize(AddedBase);
    Picked[Next] = 0;
    AdvanceLb(Next);

    if (outOfBudget())
      break;
  }

  for (; LbAdvances != 0; --LbAdvances)
    Model.undoToggle(LbScratch);
}

KwayPartitionResult PartitionSearch::runKway(const PartitionResult &Base,
                                             uint32_t Levels) {
  KwayPartitionResult Out;
  Out.Levels = std::max(Levels, 1u);
  if (!Base.Searched)
    return Out;
  Out.Searched = true;

  // Level 1 is the machine-independent base cut, verbatim; its objective
  // under the chain metric is PreForkWeight + 1 * Cost.
  KwayCutRecord First;
  First.ChosenVcs = Base.ChosenVcs;
  First.InPreFork = Base.InPreFork;
  First.Cost = Base.Cost;
  First.PreForkWeight = Base.PreForkWeight;
  First.Objective = Base.PreForkWeight + Base.Cost;
  Out.Cuts.push_back(std::move(First));
  Out.ChainCost = Base.Cost;

  Stats = PartitionResult();
  if (Opts.MaxSearchSeconds > 0.0) {
    const uint64_t NowNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    DeadlineNs = NowNs + static_cast<uint64_t>(Opts.MaxSearchSeconds * 1e9);
  } else {
    DeadlineNs = 0;
  }

  // Node-level picks of a cut: a node is picked iff every one of its VCs
  // is among the cut's chosen candidates (the search always picks whole
  // condensed nodes, so this round-trips exactly).
  std::vector<uint8_t> Picked(Nodes.size(), 0);
  const auto PickFromVcs = [&](const std::vector<uint32_t> &Vcs) {
    std::vector<uint8_t> InCut(G.size(), 0);
    for (uint32_t Vc : Vcs)
      InCut[Vc] = 1;
    for (uint32_t NI = 0; NI != Nodes.size(); ++NI) {
      bool All = !Nodes[NI].Vcs.empty();
      for (uint32_t Vc : Nodes[NI].Vcs)
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
    KwayCutRecord BestCut;
    // Seed the branch state from the previous cut, summing weights in
    // ascending statement order.
    Marks.assign(G.size(), 0);
    Weight = 0.0;
    AddedBuf.clear();
    for (uint32_t SI = 0; SI != G.size(); ++SI)
      if (SI < Prev.InPreFork.size() && Prev.InPreFork[SI]) {
        Marks[SI] = 1;
        Weight += G.stmt(SI).Weight * G.stmt(SI).IterFreq;
      }
    PartitionSet PrevP(G.size(), 0);
    for (uint32_t Vc : Prev.ChosenVcs)
      PrevP[Vc] = 1;
    ++Stats.CostEvals;
    Model.initScratch(Scratch, PrevP);
    if (Opts.EnableLowerBoundPrune && !Nodes.empty()) {
      Model.initScratch(LbScratch, PrevP);
      std::vector<uint32_t> Acc;
      for (uint32_t NI = 0; NI != Nodes.size(); ++NI)
        if (Nodes[NI].Movable && !Picked[NI])
          Acc.insert(Acc.end(), Nodes[NI].Vcs.begin(), Nodes[NI].Vcs.end());
      Model.commitToggle(LbScratch, Model.planToggle(std::move(Acc)));
    }
    kwaySearchFast(0, Picked, Mult, Threshold, BestCut);
    PickFromVcs(BestCut.ChosenVcs);
    Out.ChainCost += BestCut.Cost;
    Out.Cuts.push_back(std::move(BestCut));
  }

  Out.NodesVisited = Stats.NodesVisited;
  Out.CostEvals = Stats.CostEvals;

  if (ObsContext *Obs = Opts.Obs) {
    obsAdd(Obs, "partition.kway.searches", 1);
    obsAdd(Obs, "partition.kway.levels", Out.Cuts.size());
    obsAdd(Obs, "partition.kway.nodes.visited", Out.NodesVisited);
    obsAdd(Obs, "partition.kway.cost.evals", Out.CostEvals);
  }
  flushScratchStats();
  return Out;
}

PartitionResult PartitionSearch::run() {
  PartitionResult Best;
  Best.BodyWeight = G.dynamicBodyWeight();
  Best.NumViolationCandidates =
      static_cast<uint32_t>(G.violationCandidates().size());

  if (G.violationCandidates().size() > Opts.MaxViolationCandidates) {
    Best.Searched = false;
    obsAdd(Opts.Obs, "partition.searches", 1);
    obsAdd(Opts.Obs, "partition.skipped.too_many_vcs", 1);
    return Best;
  }
  Best.Searched = true;

  Stats = PartitionResult();
  if (Opts.MaxSearchSeconds > 0.0) {
    const uint64_t NowNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    DeadlineNs = NowNs + static_cast<uint64_t>(Opts.MaxSearchSeconds * 1e9);
  } else {
    DeadlineNs = 0;
  }
  std::vector<uint8_t> Picked(Nodes.size(), 0);
  Marks.assign(G.size(), 0);
  Weight = 0.0;
  AddedBuf.clear();
  PartitionSet Empty(G.size(), 0);
  ++Stats.CostEvals;
  Model.initScratch(Scratch, Empty);
  if (Opts.EnableLowerBoundPrune && !Nodes.empty()) {
    Model.initScratch(LbScratch, Empty);
    Model.commitToggle(LbScratch, AllMovablePlan);
  }
  searchFast(0, Picked, Best);

  Best.NodesVisited = Stats.NodesVisited;
  Best.SizePrunes = Stats.SizePrunes;
  Best.LowerBoundPrunes = Stats.LowerBoundPrunes;
  Best.CostEvals = Stats.CostEvals;
  Best.BudgetExhausted = Stats.BudgetExhausted;
  if (Best.InPreFork.empty())
    Best.InPreFork.assign(G.size(), 0);

  // Single batched observability flush per search: the hot path above
  // only bumps plain integers (Stats and the scratches' EvalStats).
  if (ObsContext *Obs = Opts.Obs) {
    obsAdd(Obs, "partition.searches", 1);
    obsAdd(Obs, "partition.nodes.visited", Best.NodesVisited);
    obsAdd(Obs, "partition.prune.size", Best.SizePrunes);
    obsAdd(Obs, "partition.prune.lower_bound", Best.LowerBoundPrunes);
    obsAdd(Obs, "partition.cost.evals", Best.CostEvals);
    obsAdd(Obs, "partition.budget.exhausted", Best.BudgetExhausted ? 1 : 0);
    obsSample(Obs, "partition.nodes_per_search", Best.NodesVisited);
  }
  flushScratchStats();
  return Best;
}

void PartitionSearch::flushScratchStats() {
  for (MisspecCostModel::Scratch *S : {&Scratch, &LbScratch}) {
    if (ObsContext *Obs = Opts.Obs) {
      obsAdd(Obs, "cost.scratch.inits", S->Stat.Inits);
      obsAdd(Obs, "cost.scratch.reuses", S->Stat.Reuses);
      obsAdd(Obs, "cost.scratch.commits.cone", S->Stat.ConeCommits);
      obsAdd(Obs, "cost.scratch.commits.full_fixpoint", S->Stat.FullCommits);
      obsAdd(Obs, "cost.scratch.undos", S->Stat.Undos);
      obsMax(Obs, "cost.scratch.undo_depth.max", S->Stat.MaxDepth);
    }
    S->Stat = MisspecCostModel::Scratch::EvalStats();
  }
}

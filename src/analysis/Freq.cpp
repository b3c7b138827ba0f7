//===- analysis/Freq.cpp - Branch probabilities and block frequencies ------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Freq.h"

#include <algorithm>
#include <cassert>

using namespace spt;

namespace {

/// Upper bound for a loop's cyclic probability; keeps trip-count estimates
/// finite (1 / (1 - 0.98) = 50 iterations) for statically unknown loops.
constexpr double MaxCyclicProb = 0.98;

} // namespace

void FunctionEdgeCounts::resizeFor(const Function &F) {
  Block.assign(F.numBlocks(), 0);
  Edge.resize(F.numBlocks());
  for (const auto &BB : F)
    Edge[BB->id()].assign(BB->Succs.size(), 0);
}

CfgProbabilities CfgProbabilities::staticHeuristic(const Function &F,
                                                   const CfgInfo &Cfg,
                                                   const LoopNest &Nest) {
  (void)Cfg;
  CfgProbabilities P;
  P.Prob.resize(F.numBlocks());
  for (const auto &BB : F) {
    const BlockId B = BB->id();
    const size_t NS = BB->Succs.size();
    P.Prob[B].assign(NS, NS == 0 ? 0.0 : 1.0 / static_cast<double>(NS));
    if (NS < 2)
      continue;

    const Loop *L = Nest.innermostFor(B);
    double Weights[2] = {1.0, 1.0};
    for (size_t S = 0; S != NS; ++S) {
      const BlockId T = BB->Succs[S];
      // Back edge of any containing loop: strongly likely.
      bool IsBack = false, IsExit = false;
      for (const Loop *Walk = L; Walk; Walk = Walk->Parent) {
        if (Walk->isBackEdge(B, T))
          IsBack = true;
        if (Walk->contains(B) && !Walk->contains(T))
          IsExit = true;
      }
      if (IsBack)
        Weights[S] = 9.0;
      else if (IsExit)
        Weights[S] = 1.0 / 9.0;
    }
    const double Sum = Weights[0] + Weights[1];
    P.Prob[B][0] = Weights[0] / Sum;
    P.Prob[B][1] = Weights[1] / Sum;
  }
  return P;
}

FreqInfo FreqInfo::compute(const Function &F, const CfgInfo &Cfg,
                           const LoopNest &Nest, const CfgProbabilities &P) {
  FreqInfo Info;
  Info.F = &F;
  Info.Cfg = &Cfg;
  const size_t N = F.numBlocks();
  Info.Freq.assign(N, 0.0);

  // Cyclic probability per loop, computed innermost-first.
  std::vector<double> CyclicProb(Nest.numLoops(), 0.0);

  // Propagates frequencies through \p Region (all blocks when empty)
  // starting from \p Head with inflow 1. Back edges into Head are skipped;
  // inner-loop headers get scaled by their cyclic probability. Returns the
  // flow arriving back at Head along its back edges.
  auto propagate = [&](BlockId Head, const Loop *Region,
                       std::vector<double> &Out) -> double {
    Out.assign(N, 0.0);
    Out[Head] = 1.0;
    const Loop *HeadLoop = nullptr;
    for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI)
      if (Nest.loop(LI)->Header == Head)
        HeadLoop = Nest.loop(LI);

    for (BlockId B : Cfg.rpo()) {
      if (Region && !Region->contains(B))
        continue;
      if (B != Head) {
        double Inflow = 0.0;
        for (BlockId Pred : Cfg.preds(B)) {
          if (!Cfg.reachable(Pred) || (Region && !Region->contains(Pred)))
            continue;
          // Skip back edges into B (handled via cyclic scaling below).
          const Loop *BLoop = Nest.innermostFor(B);
          bool IsBack = false;
          for (const Loop *Walk = BLoop; Walk; Walk = Walk->Parent)
            if (Walk->Header == B && Walk->isBackEdge(Pred, B)) {
              IsBack = true;
              break;
            }
          if (IsBack)
            continue;
          const BasicBlock *PB = F.block(Pred);
          for (uint32_t S = 0; S != PB->Succs.size(); ++S)
            if (PB->Succs[S] == B)
              Inflow += Out[Pred] * P.succProb(Pred, S);
        }
        // Scale inner-loop headers by their expected trip count.
        const Loop *BL = Nest.innermostFor(B);
        if (BL && BL->Header == B && (!Region || BL->Header != Head)) {
          const double CP = std::min(CyclicProb[BL->Id], MaxCyclicProb);
          Inflow /= (1.0 - CP);
        }
        Out[B] = Inflow;
      }
    }

    // Flow reaching Head along its back edges.
    double BackFlow = 0.0;
    if (HeadLoop) {
      for (BlockId Latch : HeadLoop->Latches) {
        const BasicBlock *LB = F.block(Latch);
        for (uint32_t S = 0; S != LB->Succs.size(); ++S)
          if (LB->Succs[S] == Head)
            BackFlow += Out[Latch] * P.succProb(Latch, S);
      }
    }
    return BackFlow;
  };

  std::vector<double> Scratch;
  for (const Loop *L : Nest.innermostFirst())
    CyclicProb[L->Id] = std::min(propagate(L->Header, L, Scratch),
                                 MaxCyclicProb);

  // Whole-function propagation from the entry.
  propagate(F.entry(), nullptr, Info.Freq);
  // The entry itself may be a loop header; propagate() pinned it to 1.
  for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI)
    if (Nest.loop(LI)->Header == F.entry())
      Info.Freq[F.entry()] /=
          (1.0 - std::min(CyclicProb[LI], MaxCyclicProb));

  // Edge flows.
  Info.EdgeFlow.resize(N);
  for (const auto &BB : F) {
    const BlockId B = BB->id();
    Info.EdgeFlow[B].assign(BB->Succs.size(), 0.0);
    for (uint32_t S = 0; S != BB->Succs.size(); ++S)
      Info.EdgeFlow[B][S] = Info.Freq[B] * P.succProb(B, S);
  }
  return Info;
}

FreqInfo FreqInfo::fromBlockCounts(const Function &F,
                                   const FunctionEdgeCounts &Counts) {
  FreqInfo Info;
  Info.F = &F;
  Info.Cfg = nullptr;
  Info.Freq.assign(F.numBlocks(), 0.0);
  for (size_t B = 0; B != F.numBlocks(); ++B)
    Info.Freq[B] = static_cast<double>(Counts.Block[B]);
  Info.EdgeFlow.resize(F.numBlocks());
  for (const auto &BB : F) {
    const BlockId B = BB->id();
    Info.EdgeFlow[B].assign(BB->Succs.size(), 0.0);
    for (uint32_t S = 0; S != BB->Succs.size(); ++S)
      Info.EdgeFlow[B][S] = static_cast<double>(Counts.Edge[B][S]);
  }
  return Info;
}

BlockFrequencies spt::blockFrequencies(const Function &F, const CfgInfo &Cfg,
                                       const LoopNest &Nest,
                                       const FunctionEdgeCounts *Counts) {
  if (Counts && Counts->Block.size() == F.numBlocks() &&
      std::any_of(Counts->Block.begin(), Counts->Block.end(),
                  [](uint64_t C) { return C != 0; }))
    return {FreqInfo::fromBlockCounts(F, *Counts), true};
  return {FreqInfo::compute(F, Cfg, Nest,
                            CfgProbabilities::staticHeuristic(F, Cfg, Nest)),
          false};
}

double FreqInfo::freqPerIteration(const Loop &L, BlockId B) const {
  if (!L.contains(B))
    return 0.0;
  const double HeaderFreq = Freq[L.Header];
  if (HeaderFreq <= 0.0)
    return 0.0;
  return Freq[B] / HeaderFreq;
}

double FreqInfo::avgTripCount(const Loop &L) const {
  const double HeaderFreq = Freq[L.Header];
  if (HeaderFreq <= 0.0)
    return 0.0;
  // Entries = inflow into the header from outside the loop.
  double Entries = 0.0;
  for (size_t B = 0; B != Freq.size(); ++B) {
    if (L.contains(static_cast<BlockId>(B)))
      continue;
    const BasicBlock *BB = F->block(static_cast<BlockId>(B));
    for (uint32_t S = 0; S != BB->Succs.size(); ++S)
      if (BB->Succs[S] == L.Header)
        Entries += EdgeFlow[B][S];
  }
  if (Entries <= 0.0)
    return 0.0;
  return HeaderFreq / Entries;
}

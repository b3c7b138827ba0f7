//===- analysis/Freq.h - Branch probabilities and block frequencies --------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "annotated control-flow graph" of the paper's cost model: branch
/// probabilities per CFG edge and derived execution frequencies per block.
/// Probabilities come from a static heuristic (back edges likely, loop
/// exits unlikely) and frequencies from Wu-Larus style propagation over
/// the loop nest; with an edge profile (profile/Profiler.h) the
/// frequencies are simply the measured block counts (blockFrequencies).
///
/// The two quantities the SPT framework consumes:
///  - freqPerIteration(L, B): expected executions of block B per iteration
///    of loop L (the "reaching probability" used to weight cost-graph
///    nodes and violation probabilities), and
///  - avgTripCount(L): expected iterations per loop entry (selection
///    criterion 4 in Section 6.1).
///
//===----------------------------------------------------------------------===//

#ifndef SPT_ANALYSIS_FREQ_H
#define SPT_ANALYSIS_FREQ_H

#include "analysis/Cfg.h"
#include "analysis/LoopInfo.h"
#include "ir/IR.h"

#include <vector>

namespace spt {

/// Raw edge-profile counts for one function (filled by the edge profiler).
struct FunctionEdgeCounts {
  /// Executions of each block.
  std::vector<uint64_t> Block;
  /// Taken counts per (block, successor index).
  std::vector<std::vector<uint64_t>> Edge;

  void resizeFor(const Function &F);
};

/// Per-successor branch probabilities for every block of a function.
class CfgProbabilities {
public:
  /// Static heuristic: back edges 0.9, loop-exit edges 0.1, other
  /// conditional successors uniform.
  static CfgProbabilities staticHeuristic(const Function &F,
                                          const CfgInfo &Cfg,
                                          const LoopNest &Nest);

  /// Probability of taking Succs[SuccIdx] when leaving \p B.
  double succProb(BlockId B, uint32_t SuccIdx) const {
    return Prob[B][SuccIdx];
  }

private:
  std::vector<std::vector<double>> Prob;
};

/// Execution frequencies per block (arbitrary scale; entry == 1 for the
/// analytical mode, absolute counts for the profiled mode).
class FreqInfo {
public:
  /// Analytical frequencies via loop-nest propagation. Cyclic
  /// probabilities are capped so irreducible flows stay finite.
  static FreqInfo compute(const Function &F, const CfgInfo &Cfg,
                          const LoopNest &Nest, const CfgProbabilities &P);

  /// Frequencies equal to measured block counts.
  static FreqInfo fromBlockCounts(const Function &F,
                                  const FunctionEdgeCounts &Counts);

  double blockFreq(BlockId B) const { return Freq[B]; }

  /// Expected executions of \p B per iteration of \p L. Zero when B is
  /// outside L; at most the inner-loop trip count when B nests deeper.
  double freqPerIteration(const Loop &L, BlockId B) const;

  /// Expected iterations per entry of \p L (header executions divided by
  /// entries from outside). Returns 0 for never-executed loops.
  double avgTripCount(const Loop &L) const;

private:
  const Function *F = nullptr;
  const CfgInfo *Cfg = nullptr;
  std::vector<double> Freq;
  /// Flow along each (block, succIdx) edge; same scale as Freq.
  std::vector<std::vector<double>> EdgeFlow;
};

/// The block frequencies the cost model reads for one function.
struct BlockFrequencies {
  FreqInfo Freq;
  /// True when Freq holds the measured block counts.
  bool Measured = false;
};

/// Block frequencies of \p F: the measured block counts when \p Counts
/// matches F's shape and shows at least one executed block; otherwise
/// analytic propagation of CfgProbabilities::staticHeuristic. Counts of a
/// function whose shape changed since profiling, or from a run that never
/// reached it, carry no signal.
BlockFrequencies blockFrequencies(const Function &F, const CfgInfo &Cfg,
                                  const LoopNest &Nest,
                                  const FunctionEdgeCounts *Counts);

} // namespace spt

#endif // SPT_ANALYSIS_FREQ_H

//===- testing/ReferencePlanner.h - Reference cost model and searches -----===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The planner's pre-optimization implementations, kept as test oracles
/// for the shipped MisspecCostModel and PartitionSearch:
///
///  - ReferenceCostModel is the original cost model: the cost graph is
///    rebuilt from the LoopDepGraph alone, ordered by a Kahn pass that
///    pops the smallest ready statement with a linear scan and rescans
///    every edge per emitted node, and every evaluation allocates and
///    propagates from scratch. It shares no code with MisspecCostModel.
///  - referencePartitionSearch() and referenceKwaySearch() are the
///    original branch and bound over PartitionSearch's VC graph: the
///    closure marks are rebuilt at every tree node, each evaluation
///    copies a PartitionSet into an allocating cost() call, and each
///    lower-bound probe evaluates a fresh union of the movable suffix.
///
/// The shipped paths fold the same operands in the same order, so both
/// must agree bit for bit: same costs, partitions and weights, and the
/// same visit, prune and evaluation counts (the same tree walked).
/// tests/cost_incremental_test.cpp, tests/partition_test.cpp,
/// tests/partition_kway_test.cpp, the cost-diff and partition-diff fuzz
/// oracles and bench/perf_compile's stress sweep compare against them,
/// partly on the synthetic stress graphs replicateAcyclic() builds.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_TESTING_REFERENCEPLANNER_H
#define SPT_TESTING_REFERENCEPLANNER_H

#include "analysis/DepGraph.h"
#include "cost/CostModel.h"
#include "partition/Partition.h"

#include <cstdint>
#include <vector>

namespace spt {

/// The original misspeculation cost model (see the file comment).
class ReferenceCostModel {
public:
  explicit ReferenceCostModel(const LoopDepGraph &G);

  const LoopDepGraph &depGraph() const { return *G; }

  /// Misspeculation cost of \p InPreFork (size must equal G->size()).
  double cost(const PartitionSet &InPreFork) const;

  /// Per-statement re-execution probabilities for \p InPreFork; 0 for
  /// statements outside the cost graph.
  std::vector<double> reexecProbabilities(const PartitionSet &InPreFork) const;

  /// Cost of the empty pre-fork region.
  double emptyPartitionCost() const;

  /// Statements that belong to the cost graph.
  const std::vector<uint8_t> &reachable() const { return Reach; }

  /// Quasi-topological processing order over the cost graph.
  const std::vector<uint32_t> &topoOrder() const { return Order; }

  /// True when the cost graph has a cycle (evaluation sweeps to a
  /// fixpoint).
  bool hasCycles() const { return Cyclic; }

private:
  struct CrossSeed {
    uint32_t Vc;
    uint32_t Dst;
    double Prob;
  };
  struct PropEdge {
    uint32_t Src;
    uint32_t Dst;
    double Prob;
  };

  void propagate(std::vector<double> &V, const PartitionSet &InPreFork) const;

  const LoopDepGraph *G;
  std::vector<CrossSeed> Seeds;
  std::vector<PropEdge> Prop;              ///< Intra flow+control edges.
  std::vector<std::vector<uint32_t>> InOf; ///< Prop-edge indices per Dst.
  std::vector<uint8_t> Reach;
  std::vector<uint32_t> Order;
  bool Cyclic = false;
};

/// The original branch and bound over \p VcGraph's VC nodes, evaluated
/// through \p Model, under \p Opts (the graph of both must be the same).
/// Honours MaxSearchNodes, but not the wall-clock deadline or the cancel
/// token. Must equal VcGraph's own run() bit for bit.
PartitionResult referencePartitionSearch(const PartitionSearch &VcGraph,
                                         const ReferenceCostModel &Model,
                                         const PartitionOptions &Opts);

/// The original k-way chain search: extends \p Base (a result of
/// referencePartitionSearch or run() on the same graph) to \p Levels
/// cuts. Must equal PartitionSearch::runKway bit for bit.
KwayPartitionResult referenceKwaySearch(const PartitionSearch &VcGraph,
                                        const ReferenceCostModel &Model,
                                        const PartitionOptions &Opts,
                                        const PartitionResult &Base,
                                        uint32_t Levels);

/// The acyclic stress graph the planner's equivalence harnesses share:
/// \p Filler copies of \p G's statements marked immovable (the bulk of a
/// hot loop the search must cost but may never move), then \p K copies
/// as they are, each keeping G's cross-iteration edges and its forward
/// intra-iteration edges only (the paper's acyclic regime, where commits
/// take the cone path). Copies are disjoint, so the search tree over the
/// movable copies is the K-fold product of G's; replicateAcyclic(G, 0, 1)
/// is G's acyclic shadow.
LoopDepGraph replicateAcyclic(const LoopDepGraph &G, unsigned Filler,
                              unsigned K);

} // namespace spt

#endif // SPT_TESTING_REFERENCEPLANNER_H

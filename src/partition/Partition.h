//===- partition/Partition.h - Optimal SPT loop partitioning ---------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimal-loop-partition search of the paper's Section 5: find the
/// legal SPT loop partition minimizing misspeculation cost subject to a
/// pre-fork-region size threshold.
///
/// A partition is identified by a set of violation candidates placed in the
/// pre-fork region; the statements actually moved are the candidates'
/// dependence closures (every intra-iteration predecessor — flow, anti,
/// output and control — must move too, which is exactly the paper's
/// "maintain all forward intra-iteration dependence edges" legality rule).
///
/// The search is branch-and-bound over the violation-candidate dependence
/// graph (VC-dep graph), visiting candidate sets in topological order so
/// each pre-fork region is enumerated once, with the paper's two pruning
/// heuristics:
///   1. stop descending when the pre-fork region exceeds the size
///      threshold (sizes grow monotonically along a branch), and
///   2. stop when a lower bound — the cost with every still-addable
///      candidate hypothetically moved — cannot beat the incumbent
///      (costs shrink monotonically as candidates move).
/// Loops with more than MaxViolationCandidates are skipped outright, as in
/// the paper.
///
/// The search is incremental: a MisspecCostModel::Scratch stays committed
/// to the current tree node's partition, updated by commitToggle() and
/// undoToggle() on descend and backtrack. A second, sliding scratch holds
/// the committed partition united with the still-addable candidates (the
/// movable suffix), so each lower-bound probe is a read of its settled
/// cost. Marks and the pre-fork weight are maintained along the branch,
/// and nothing on the hot path allocates. The pre-optimization search in
/// testing/ReferencePlanner.h walks the same tree through the VC-graph
/// accessors below and must return bit-identical results; the
/// equivalence tests and the partition-diff fuzz oracle check that.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_PARTITION_PARTITION_H
#define SPT_PARTITION_PARTITION_H

#include "analysis/DepGraph.h"
#include "cost/CostModel.h"
#include "obs/Obs.h"
#include "support/CancelToken.h"

#include <cstdint>
#include <limits>
#include <vector>

namespace spt {

/// Search configuration.
struct PartitionOptions {
  /// Pre-fork region size threshold, as a fraction of the loop body's
  /// dynamic weight (Section 6.1 criterion 2 uses the same threshold).
  double PreForkSizeFraction = 0.34;
  /// Skip loops with more violation candidates than this (Section 5.2.1).
  uint32_t MaxViolationCandidates = 30;
  /// Hard cap on search-tree nodes (safety net; the paper's pruning keeps
  /// real searches far below this).
  uint64_t MaxSearchNodes = 1u << 20;
  /// Wall-clock deadline for one search, in seconds; 0 disables it. Like
  /// MaxSearchNodes this truncates rather than fails: the best incumbent
  /// found so far is returned with BudgetExhausted set.
  double MaxSearchSeconds = 0.0;
  /// Shared cooperative cancellation (null disables it). Polled on the
  /// same stride as the wall-clock deadline, so a request-level token —
  /// which carries one ABSOLUTE deadline across every search of a
  /// compilation, unlike MaxSearchSeconds which restarts per loop — is
  /// honored mid-search instead of overshooting by a full loop search.
  /// Firing truncates exactly like the other budgets: the best incumbent
  /// is kept and BudgetExhausted is set.
  const CancelToken *Cancel = nullptr;
  /// Ablation toggles for the two pruning heuristics.
  bool EnableSizePrune = true;
  bool EnableLowerBoundPrune = true;
  /// Observability sink; null (the default) disables recording. The hot
  /// search path never touches it — run() and runKway() flush their
  /// statistics and the scratches' evaluation counters once, after the
  /// search finishes.
  ObsContext *Obs = nullptr;
};

/// Result of the optimal-partition search for one loop.
struct PartitionResult {
  /// False when the loop was skipped (too many violation candidates).
  bool Searched = false;
  /// True when the search was truncated — the node budget ran out or the
  /// wall-clock deadline passed — so the partition is the best incumbent,
  /// not a proven optimum. Callers should keep it (graceful degradation)
  /// but must not report the search as exhaustive.
  bool BudgetExhausted = false;
  /// Stmt-level pre-fork membership (dependence closure of the chosen
  /// candidates); size equals the dep graph's statement count.
  PartitionSet InPreFork;
  /// Chosen violation candidates (statement indices).
  std::vector<uint32_t> ChosenVcs;
  /// Misspeculation cost of the best partition found.
  double Cost = std::numeric_limits<double>::infinity();
  /// Dynamic weight of the pre-fork region.
  double PreForkWeight = 0.0;
  /// Dynamic weight of the whole loop body.
  double BodyWeight = 0.0;
  /// Search statistics (for the ablation benches).
  uint64_t NodesVisited = 0;
  uint64_t SizePrunes = 0;
  uint64_t LowerBoundPrunes = 0;
  /// Cost-model evaluations performed (node evaluations plus lower-bound
  /// probes).
  uint64_t CostEvals = 0;
  uint32_t NumViolationCandidates = 0;
};

/// One cut of a k-way partition chain (see PartitionSearch::runKway).
/// Cut d's pre-fork region is a superset of cut d-1's: on a machine with
/// more than one speculative core, the d-th chained speculative thread
/// forks after the statements of cut d, so deeper cuts trade a larger
/// serial prefix for a cheaper misspeculation exposure.
struct KwayCutRecord {
  /// Chosen violation candidates (statement indices, sorted).
  std::vector<uint32_t> ChosenVcs;
  /// Stmt-level pre-fork membership (dependence closure of ChosenVcs).
  PartitionSet InPreFork;
  /// Misspeculation cost of this cut's partition.
  double Cost = std::numeric_limits<double>::infinity();
  /// Dynamic weight of this cut's pre-fork region.
  double PreForkWeight = 0.0;
  /// The level objective the search minimized:
  /// PreForkWeight + level * Cost.
  double Objective = std::numeric_limits<double>::infinity();
};

/// Result of the k-way chain search: one cut per level, Cuts[0] being
/// the machine-independent base partition from run().
struct KwayPartitionResult {
  bool Searched = false;
  uint32_t Levels = 0;
  std::vector<KwayCutRecord> Cuts;
  /// Sum of the cuts' misspeculation costs — the chain's total exposure.
  double ChainCost = 0.0;
  /// Search statistics over all levels (for the equivalence tests and
  /// the partition.kway.* observability counters).
  uint64_t NodesVisited = 0;
  uint64_t CostEvals = 0;
};

/// The violation-candidate dependence graph plus the search driver.
class PartitionSearch {
public:
  PartitionSearch(const LoopDepGraph &G, const MisspecCostModel &Model,
                  const PartitionOptions &Opts = PartitionOptions());

  /// Runs the branch-and-bound search.
  PartitionResult run();

  /// Generalizes \p Base (a result of run() on this same search) to a
  /// k-way partition chain for a machine with \p Levels speculative
  /// cores: level 1 is the base cut verbatim; each deeper level d runs
  /// the same branch-and-bound over *supersets* of level d-1's chosen
  /// candidates, minimizing the chain objective
  ///   J_d(P) = PreForkWeight(P) + d * cost(P)
  /// subject to the relaxed size threshold min(BodyWeight,
  /// d * SizeThreshold) — the d-th chained thread forks later, so its
  /// serial prefix may be proportionally larger, but its misspeculation
  /// cost is paid by every downstream segment.
  KwayPartitionResult runKway(const PartitionResult &Base, uint32_t Levels);

  /// Number of VC-dep-graph nodes (condensed strongly-connected
  /// components of violation candidates).
  size_t numVcNodes() const { return Nodes.size(); }

  /// The statement-level move closure of one VC node (for tests).
  const std::vector<uint32_t> &nodeClosure(size_t NodeIdx) const {
    return Nodes[NodeIdx].Closure;
  }

  /// Whether the node can legally move (its closure is fully movable).
  bool nodeMovable(size_t NodeIdx) const { return Nodes[NodeIdx].Movable; }

  /// The VC nodes this node depends on (sorted, all at lower indices).
  const std::vector<uint32_t> &nodePreds(size_t NodeIdx) const {
    return Nodes[NodeIdx].Preds;
  }

  /// The violation candidates grouped into one VC node.
  const std::vector<uint32_t> &nodeVcs(size_t NodeIdx) const {
    return Nodes[NodeIdx].Vcs;
  }

  /// Dynamic weight of the node's move closure.
  double nodeClosureWeight(size_t NodeIdx) const {
    return Nodes[NodeIdx].ClosureWeight;
  }

private:
  /// One VC-dep-graph node: a strongly-connected component of violation
  /// candidates (usually a singleton), in topological order.
  struct VcNode {
    std::vector<uint32_t> Vcs;     ///< Violation-candidate stmt indices.
    std::vector<uint32_t> Closure; ///< Move closure (stmt indices, sorted).
    std::vector<uint32_t> Preds;   ///< VC-node indices this depends on.
    double ClosureWeight = 0.0;    ///< Dynamic weight of the closure.
    bool Movable = true;
  };

  void buildVcGraph();
  /// Precomputes the per-node and movable-suffix toggle plans the
  /// incremental search reuses at every tree node.
  void buildPlans();
  /// True when the node budget or the wall-clock deadline is spent; sets
  /// Stats.BudgetExhausted on first detection.
  bool outOfBudget();
  /// Adds both scratches' evaluation counters to Opts.Obs (when set) and
  /// zeroes them, so each search's work is counted exactly once.
  void flushScratchStats();

  void searchFast(uint32_t MinNext, std::vector<uint8_t> &Picked,
                  PartitionResult &Best);

  void recordIncumbent(const std::vector<uint8_t> &Picked,
                       const std::vector<uint8_t> &CurMarks, double Cost,
                       double CurWeight, PartitionResult &Best) const;

  // K-way chain search (one level; supersets of the already-Picked base
  // nodes, minimizing CurWeight + Mult * cost under Threshold).
  void kwaySearchFast(uint32_t MinNext, std::vector<uint8_t> &Picked,
                      double Mult, double Threshold, KwayCutRecord &Best);
  void recordKwayIncumbent(const std::vector<uint8_t> &Picked,
                           const std::vector<uint8_t> &CurMarks, double Cost,
                           double CurWeight, double Mult, double Threshold,
                           KwayCutRecord &Best) const;

  const LoopDepGraph &G;
  const MisspecCostModel &Model;
  PartitionOptions Opts;
  std::vector<VcNode> Nodes; ///< Topologically sorted.
  double SizeThreshold = 0.0;
  /// Wall-clock deadline in steady_clock nanoseconds-since-epoch units;
  /// 0 when no deadline is armed. Checked every DeadlineCheckStride visits
  /// so the clock read does not dominate small searches.
  uint64_t DeadlineNs = 0;
  static constexpr uint64_t DeadlineCheckStride = 1024;
  PartitionResult Stats;

  // Search state (prepared once per PartitionSearch; the hot path never
  // allocates).
  MisspecCostModel::Scratch Scratch;
  /// Sliding lower-bound scratch. Throughout a tree node's child loop it
  /// holds the committed partition united with the movable suffix at the
  /// loop cursor — exactly the optimistic partition the monotone lower
  /// bound evaluates — so each probe is a read of LbScratch.Cost. The
  /// state needs no update on descend (committed ∪ {Next} ∪
  /// suffix(Next+1) is the same set as committed ∪ suffix(Next)) and one
  /// cone-local commitUntoggleDeferred() whenever the loop moves past a
  /// movable node; every level undoes its own advances on exit.
  MisspecCostModel::Scratch LbScratch;
  std::vector<MisspecCostModel::TogglePlan> NodePlans;
  /// Plan toggling the VCs of every movable node: seeds LbScratch at the
  /// root (committed = ∅, suffix = everything). Because picks happen in
  /// ascending node order the still-addable set is always a suffix, and
  /// LbScratch reaches any suffix by un-toggling node plans one at a
  /// time — no per-position suffix plans are needed.
  MisspecCostModel::TogglePlan AllMovablePlan;
  std::vector<uint8_t> Marks; ///< Branch-maintained closure membership.
  double Weight = 0.0;        ///< Branch-maintained pre-fork weight.
  std::vector<uint32_t> AddedBuf; ///< Flat stack of per-level added stmts.
};

} // namespace spt

#endif // SPT_PARTITION_PARTITION_H

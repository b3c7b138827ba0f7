//===- cost/CostModel.h - Misspeculation cost model -------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The misspeculation cost model of the paper's Section 4 — the central
/// service component of the cost-driven framework. Given a loop's annotated
/// dependence graph and an SPT loop partition (the set of statements placed
/// in the pre-fork region), it computes the expected amount of computation
/// within a speculatively executed iteration that must be re-executed.
///
/// Construction (4.2.2): the cost graph starts from one pseudo node per
/// violation candidate, whose out-edges are the candidate's cross-iteration
/// true-dependence edges; every operation reachable from those targets via
/// intra-iteration dependence edges joins the graph. Each edge carries the
/// conditional probability that re-execution of its source misspeculates
/// its destination.
///
/// Evaluation (4.2.3): pseudo nodes get re-execution probability 0 when
/// their candidate sits in the pre-fork region, else the candidate's
/// violation probability. Probabilities then propagate in topological order
/// with x = 1 - (1 - x) * (1 - r * v(p)) under the independence
/// approximation the paper states. Cycles (possible through inner loops)
/// are resolved by sweeping to a fixpoint, which the monotone update
/// reaches quickly.
///
/// Cost (4.2.4): sum over operation nodes of v(c) * Cost(c), where Cost(c)
/// is the operation's weight times its per-iteration execution frequency;
/// pseudo nodes are excluded, exactly as in the paper.
///
/// Evaluation has one implementation, the scratch path: a Scratch holds
/// the committed partition's full propagation solution, and committing a
/// group of violation candidates into (or out of) the pre-fork region
/// re-propagates only the cone of statements reachable from their seed
/// targets, with an undo trail for backtracking. Nothing on that path
/// allocates after initScratch(). The one-shot calls (cost(),
/// reexecProbabilities(), emptyPartitionCost()) seed a fresh Scratch.
/// Every route to a partition folds the same operands in the same order,
/// so incremental and fresh results are bit-identical; the retained
/// pre-optimization model in testing/ReferencePlanner.h checks that, in
/// tests/cost_incremental_test.cpp and the cost-diff fuzz oracle.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_COST_COSTMODEL_H
#define SPT_COST_COSTMODEL_H

#include "analysis/DepGraph.h"

#include <cstdint>
#include <vector>

namespace spt {

/// A partition: InPreFork[stmt index] != 0 when the statement is placed in
/// the pre-fork region.
using PartitionSet = std::vector<uint8_t>;

/// The reusable (per-loop) cost-graph; evaluate per candidate partition.
class MisspecCostModel {
public:
  explicit MisspecCostModel(const LoopDepGraph &G);

  const LoopDepGraph &depGraph() const { return *G; }

  /// Misspeculation cost of \p InPreFork (size must equal G->size()).
  /// One-shot: seeds and discards a Scratch per call.
  double cost(const PartitionSet &InPreFork) const;

  /// Per-statement re-execution probabilities for \p InPreFork. Entries
  /// for statements outside the cost graph are 0.
  std::vector<double> reexecProbabilities(const PartitionSet &InPreFork) const;

  /// Violation probability of a violation candidate (how often the main
  /// thread modifies its result per iteration, paper step 1).
  double violationProbability(uint32_t StmtIdx) const;

  /// Statements that belong to the cost graph (reachable from some
  /// violation candidate's cross edges).
  const std::vector<uint8_t> &reachable() const { return Reach; }

  /// Quasi-topological processing order over the cost graph (for the
  /// construction regression tests).
  const std::vector<uint32_t> &topoOrder() const { return Order; }

  /// Cost of the trivial partition (empty pre-fork region).
  double emptyPartitionCost() const;

  /// True when the evaluation needed fixpoint sweeps (cyclic cost graph).
  bool hasCycles() const { return Cyclic; }

  //===--------------------------------------------------------------------===//
  // Allocation-free scratch evaluation
  //===--------------------------------------------------------------------===//

  /// Reusable evaluation state. One Scratch belongs to one caller (the
  /// model itself stays const and shareable across threads); every buffer
  /// is sized by initScratch() and never allocates afterwards.
  struct Scratch {
    // Committed state: the full propagation solution for InPre.
    std::vector<double> V;      ///< Committed re-execution probabilities.
    std::vector<double> Base;   ///< Committed pseudo-node contributions.
    std::vector<uint8_t> InPre; ///< Committed partition (stmt-indexed).
    double Cost = 0.0;          ///< Cost of the committed partition.
    /// CostPrefix[K]: the cost sum after folding the first K ReachList
    /// terms — exactly the running partials of a cold left-to-right sum,
    /// so a commit whose cone starts at ReachList
    /// position P can resume the sum from CostPrefix[P] and stay
    /// bit-identical while re-adding only the tail.
    std::vector<double> CostPrefix;
    /// Entries [0, PrefixValidTo] of CostPrefix match a cold sum of the
    /// current V. Deferred commits only lower this watermark instead of
    /// re-summing; refreshCost() settles the tail once before a read.
    /// Cost == CostPrefix.back() whenever the watermark is full.
    uint32_t PrefixValidTo = 0;

    // Undo trail: one frame per commit entry point.
    struct Saved {
      uint32_t Idx;
      double Old;
      Saved() {} // Deliberately uninitialized: trail slots bulk-appended
                 // with resize() are always overwritten immediately, and
                 // default-init (unlike value-init) skips the zero fill.
      Saved(uint32_t Idx, double Old) : Idx(Idx), Old(Old) {}
    };
    struct SavedPre {
      uint32_t Idx;
      uint8_t Old;
    };
    std::vector<Saved> VTrail, BaseTrail;
    std::vector<SavedPre> PreTrail;
    /// Overwritten CostPrefix tail entries, contiguous per frame.
    std::vector<double> PrefixTrail;
    struct Frame {
      uint32_t VSize, BaseSize, PreSize;
      /// First ReachList position whose prefix entry a refresh rewrote
      /// while this frame was on top (ReachList.size() when none did);
      /// the frame's PrefixTrail span restores [PrefixPos+1, NumReach].
      uint32_t PrefixPos;
      /// PrefixValidTo before this commit, restored on undo.
      uint32_t SavedValidTo;
      double OldCost;
    };
    std::vector<Frame> Frames;

    size_t depth() const { return Frames.size(); }

    /// Evaluation counters, maintained unconditionally: the Scratch is
    /// caller-owned and single-threaded, so plain increments cost nothing
    /// measurable next to the propagation work they count. PartitionSearch
    /// flushes them into the observability registry, and zeroes them, once
    /// per search (see docs/observability.md for the counter catalogue).
    struct EvalStats {
      uint64_t Inits = 0;       ///< initScratch full propagations.
      uint64_t Reuses = 0;      ///< initScratch calls reusing a warm scratch.
      uint64_t ConeCommits = 0; ///< Committed deltas via the cone path.
      uint64_t FullCommits = 0; ///< Committed deltas via full re-propagation.
      uint64_t Undos = 0;       ///< undoToggle calls.
      uint64_t MaxDepth = 0;    ///< High-water undo-trail frame depth.
    } Stat;
  };

  /// The precomputed footprint of toggling one violation-candidate group:
  /// the seed targets whose Base changes and the cone of statements whose
  /// re-execution probability can change, in propagation order. Plans
  /// depend only on the group, never on the partition, so searches build
  /// them once and reuse them at every tree node.
  struct TogglePlan {
    std::vector<uint32_t> Vcs;      ///< Toggled candidate stmt indices.
    std::vector<uint32_t> BaseDsts; ///< Seed targets to recompute (sorted).
    std::vector<uint32_t> Cone;     ///< Affected stmts in topo order.
    /// Smallest ReachList position of a cone member: the first term of
    /// the cost sum the toggle can change. Commits resume the running
    /// prefix sum here instead of re-summing the whole cost graph.
    uint32_t FirstReachPos = 0;
  };

  /// Seeds \p S with the full propagation solution of \p InPreFork and
  /// clears the undo trail. The only scratch entry point that allocates.
  void initScratch(Scratch &S, const PartitionSet &InPreFork) const;

  /// Builds the toggle footprint for \p Vcs (unused on cyclic graphs,
  /// where every toggle falls back to a full re-propagation).
  TogglePlan planToggle(std::vector<uint32_t> Vcs) const;

  /// Commits the plan's candidates into the scratch's partition, updating
  /// V/Base/Cost incrementally and pushing an undo frame.
  void commitToggle(Scratch &S, const TogglePlan &Plan) const;

  /// The inverse commit: removes the plan's (currently committed)
  /// candidates from the scratch's partition, with the same incremental
  /// cone update and undo frame. A toggle's footprint is symmetric —
  /// exactly the statements in the plan's cone can differ between the two
  /// partitions — so removal re-propagates the same cone and stays
  /// bit-identical to a fresh evaluation. The cost re-sum is deferred:
  /// the committed V/Base update happens now while CostPrefix keeps its
  /// stale tail and only the validity watermark drops, so several
  /// removals between cost reads settle with one refreshCost(). Until that
  /// refresh, S.Cost is meaningless. The partition search uses this to
  /// slide a second scratch across the movable suffix, turning every
  /// lower-bound probe into a cached read (see PartitionSearch).
  void commitUntoggleDeferred(Scratch &S, const TogglePlan &Plan) const;

  /// Settles CostPrefix/Cost after deferred commits with one tail re-sum
  /// from the first stale position — the identical fold a cold sum
  /// performs — and returns the committed partition's cost.
  double refreshCost(Scratch &S) const;

  /// Reverts the most recent commit (toggle or deferred untoggle),
  /// including any cost refresh that happened on top of it.
  void undoToggle(Scratch &S) const;

private:
  struct CrossSeed {
    uint32_t Vc;   ///< Violation-candidate statement index.
    uint32_t Dst;  ///< Target statement index.
    double Prob;   ///< Cross-dependence probability.
  };
  struct PropEdge {
    uint32_t Src;
    uint32_t Dst;
    double Prob;
  };
  /// One incoming propagation edge, packed for the propagation loops:
  /// per-destination contiguous, in edge order, so every propagation
  /// folds a statement's product identically.
  struct InEdge {
    uint32_t Src;
    double Prob;
  };

  /// Allocation-free full propagation into caller-sized buffers; a
  /// statement counts as pre-fork when InPre[s].
  void propagateFull(std::vector<double> &V, std::vector<double> &Base,
                     const uint8_t *InPre) const;
  /// Base[Dst] recomputed from Dst's seeds under the same membership rule.
  double recomputeBase(uint32_t Dst, const uint8_t *InPre) const;
  /// Resumes the committed cost sum from ReachList position \p FromPos,
  /// reusing the stored partial below it and rewriting CostPrefix for
  /// the tail — the identical operation sequence a cold sum from
  /// position 0 performs from that point, hence bit-identical totals.
  double refillCostPrefix(Scratch &S, uint32_t FromPos) const;
  /// Shared tail of the commit entry points: after InPre has been
  /// flipped (and trailed), re-propagates the plan's cone in place with
  /// trails, lowers the prefix watermark, and — unless deferred —
  /// refreshes S.Cost.
  void applyCommittedDelta(Scratch &S, const TogglePlan &Plan,
                           bool Refresh) const;
  void buildDerivedStructures();

  const LoopDepGraph *G;
  std::vector<CrossSeed> Seeds;
  std::vector<PropEdge> Prop;               ///< Intra flow+control edges.
  std::vector<uint8_t> Reach;
  std::vector<uint32_t> Order; ///< Quasi-topological processing order.
  bool Cyclic = false;

  // Derived structures for the scratch path (built once per model).
  std::vector<double> SeedContribution; ///< Prob * violationProbability.
  std::vector<uint32_t> SeedsOfDst, SeedsOfDstOff; ///< CSR, seed order.
  std::vector<uint32_t> SeedsOfVc, SeedsOfVcOff;   ///< CSR, seed order.
  std::vector<uint32_t> PropOut, PropOutOff;       ///< CSR, edge order.
  std::vector<uint32_t> ReachList; ///< Reachable stmts, ascending.
  std::vector<uint32_t> OrderPos;  ///< Position in Order (~0u if absent).
  std::vector<uint32_t> ReachPos;  ///< Position in ReachList (~0u).
  std::vector<InEdge> InEdges;     ///< Incoming Prop edges, CSR by Dst.
  std::vector<uint32_t> InEdgeOff; ///< Per-Dst offsets into InEdges.
  /// Weight and IterFreq of each ReachList statement, flat in ReachList
  /// order, so the hot prefix re-sum streams instead of gathering from
  /// the statement table. The sum still folds (V * W) * F left to right.
  std::vector<double> ReachW, ReachF;
  std::vector<uint32_t> AllSeedDsts; ///< Deduped seed targets, sorted.
};

} // namespace spt

#endif // SPT_COST_COSTMODEL_H

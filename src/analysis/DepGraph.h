//===- analysis/DepGraph.h - Annotated loop dependence graph ---------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The probability-annotated dependence graph of one loop body — the core
/// data structure of the paper's Section 4.1. Nodes are the loop body's
/// statements (our statements are single IR instructions, matching ORC's
/// operation-level Codereps); edges carry:
///
///  - a kind: register/memory flow (true), anti, output, or control
///    dependence,
///  - an iteration class: intra-iteration or cross-iteration (distance 1 —
///    only adjacent-iteration flow can be violated by a speculative thread
///    running the next iteration), and
///  - a probability p: "for every N writes at W, pN reads access the same
///    location at R" — measured by the dependence profiler when available,
///    otherwise estimated from execution frequencies with type-based
///    aliasing (same array => may alias). DepGraphOptions documents the
///    order in which the sources are consulted.
///
/// The cost model consumes flow+control edges; the partition legality
/// closure consumes all intra-iteration edges (a legal partition keeps all
/// forward intra-iteration dependences forward, Section 5).
///
//===----------------------------------------------------------------------===//

#ifndef SPT_ANALYSIS_DEPGRAPH_H
#define SPT_ANALYSIS_DEPGRAPH_H

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "analysis/ProfileData.h"
#include "ir/IR.h"

#include <algorithm>
#include <map>
#include <span>
#include <vector>

namespace spt {

/// Dependence edge kinds.
enum class DepKind : uint8_t {
  FlowReg, ///< Register def -> use (true dependence).
  AntiReg, ///< Register use -> redefinition.
  OutReg,  ///< Register def -> redefinition.
  FlowMem, ///< Memory write -> read within an alias class.
  AntiMem, ///< Memory read -> later write (intra only).
  OutMem,  ///< Memory write -> later write (intra only).
  Control, ///< Branch -> control-dependent statement.
};

/// Returns true for the true-dependence kinds the cost model propagates.
inline bool isFlowDep(DepKind K) {
  return K == DepKind::FlowReg || K == DepKind::FlowMem;
}

/// One statement of the loop body.
struct LoopStmt {
  StmtId Id = NoStmt;
  BlockId Block = NoBlock;
  uint32_t Index = 0; ///< Instruction index within its block.
  const Instr *I = nullptr;
  double IterFreq = 0.0; ///< Expected executions per loop iteration.
  double Weight = 0.0;   ///< Cost units of one execution (op class weight).
  bool Movable = true;   ///< May be placed in the pre-fork region.
};

/// One dependence edge between loop statements (indices into stmts()).
struct DepEdge {
  uint32_t Src = 0;
  uint32_t Dst = 0;
  DepKind Kind = DepKind::FlowReg;
  bool Cross = false; ///< Cross-iteration (distance 1) vs intra-iteration.
  double Prob = 1.0;
};

/// Inputs that vary by compilation mode (Section 8's basic/best).
///
/// A memory-flow edge W -> R takes its probability from the first source
/// that speaks for it: Measured, when both W and R have an execution
/// record there; else DepProfile; else the frequency-ratio heuristic
/// min(1, freq(R) / freq(W)) per iteration. A profile's answer is the
/// rate at which R read W's value per execution of W, and zero when W
/// never ran or the pair never conflicted. Register-flow and control
/// edges always take the heuristic.
struct DepGraphOptions {
  /// This loop's record in a measured dependence-profile artifact
  /// (profile/DepProfiler.h); null when none applies.
  const LoopDepProfileData *Measured = nullptr;
  /// This loop's in-run dependence profile; null when stage B collected
  /// none.
  const LoopDepProfileData *DepProfile = nullptr;
  /// When false, memory effects of calls are ignored while *estimating*
  /// probabilities (legality stays conservative). Mirrors the paper's
  /// observed cost-underestimation for loops with calls (Figure 19).
  bool ModelCallEffectsInCost = true;
  /// Allow side-effecting calls into the pre-fork region. Sound here
  /// because call effects are fully modeled as alias-class dependence
  /// edges (which the move closure preserves); it stands in for the
  /// paper's anticipated "export of global variables beyond their visible
  /// scopes" enabling technique, which gave ORC the same power.
  bool AllowImpureCallMotion = false;
  /// Expected per-invocation weight of each callee, used as the Weight of
  /// Call statements (cost-graph nodes measure "amount of computation";
  /// re-executing a call re-executes its callee). Null leaves the flat
  /// per-call weight.
  const std::map<const Function *, double> *CallWeights = nullptr;
  /// Type-based aliasing at C strength: arrays with the same element type
  /// share one alias class (as int* accesses do under ORC's type-based
  /// disambiguation). The BASIC compilation uses this; the finer
  /// per-array classes model what dependence profiling recovers.
  bool CoarseAliasClasses = false;
};

/// Cost-unit weight of an operation class (elementary-operation counts in
/// the paper's terms).
double opClassWeight(OpClass C);

/// The annotated dependence graph of one loop.
class LoopDepGraph {
public:
  static LoopDepGraph build(const Module &M, const Function &F,
                            const CfgInfo &Cfg, const Loop &L,
                            const FreqInfo &Freq, const CallEffects &Effects,
                            const DepGraphOptions &Opts = DepGraphOptions());

  /// The statement ids, in statement order, of the Int-typed,
  /// register-defining violation candidates of \p L: exactly the
  /// statements of build(...).violationCandidates() with Dst != NoReg and
  /// Ty == Type::Int, which stage B watches for value patterns. Computed
  /// from the carried reaching definitions and the call summaries alone,
  /// without building edges; each statement's pricing stops at its first
  /// cross-iteration flow probability above 1e-9.
  static std::vector<StmtId>
  valueWatchCandidates(const Module &M, const Function &F, const CfgInfo &Cfg,
                       const Loop &L, const FreqInfo &Freq,
                       const CallEffects &Effects,
                       const DepGraphOptions &Opts = DepGraphOptions());

  /// Builds a graph from explicit statements and edges, without any IR
  /// behind it. Used by unit tests and the cost-model walkthrough example
  /// that reproduces the paper's Figures 5-9. Statements may leave I null;
  /// canPrecedeIntra() is unavailable on synthetic graphs.
  static LoopDepGraph forSynthetic(std::vector<LoopStmt> SynthStmts,
                                   std::vector<DepEdge> SynthEdges);

  const Function &function() const { return *F; }
  const Loop &loop() const { return *L; }

  const std::vector<LoopStmt> &stmts() const { return Stmts; }
  const LoopStmt &stmt(uint32_t Idx) const { return Stmts[Idx]; }
  size_t size() const { return Stmts.size(); }

  /// Index of a statement id, or ~0u when not part of the loop body.
  uint32_t indexOf(StmtId Id) const {
    return Id < IdToIndex.size() ? IdToIndex[Id] : ~0u;
  }

  const std::vector<DepEdge> &edges() const { return Edges; }
  /// Outgoing/incoming edge indices per statement index, ascending.
  std::span<const uint32_t> outEdges(uint32_t Stmt) const {
    return {OutIdx.data() + OutBegin[Stmt], OutIdx.data() + OutBegin[Stmt + 1]};
  }
  std::span<const uint32_t> inEdges(uint32_t Stmt) const {
    return {InIdx.data() + InBegin[Stmt], InIdx.data() + InBegin[Stmt + 1]};
  }

  /// Statement indices that are sources of cross-iteration flow edges
  /// (the paper's violation candidates), sorted ascending.
  const std::vector<uint32_t> &violationCandidates() const {
    return ViolationCandidates;
  }

  /// Sum of Weight over all statements (static body size).
  double staticBodyWeight() const { return StaticWeight; }
  /// Sum of Weight * IterFreq (expected work per iteration).
  double dynamicBodyWeight() const { return DynamicWeight; }

  /// True when statement \p A can execute before \p B within one iteration
  /// (same-block order or body-DAG reachability ignoring this loop's back
  /// edges).
  bool canPrecedeIntra(uint32_t A, uint32_t B) const;

  /// Appends a client-supplied dependence edge after construction and
  /// reindexes. Extra edges only ever constrain consumers further, so
  /// clients with coarser dependence information than build() derives
  /// (merged profiles, degraded modes, the robustness tests) may add
  /// conservative edges without re-running the builder.
  void addConservativeEdge(uint32_t Src, uint32_t Dst, DepKind Kind,
                           bool Cross, double Prob = 1.0);

  /// Removes every edge matching \p Pred and reindexes. Edge removal can
  /// make a graph unsound for code motion; downstream validation (the
  /// transform's realizability checks) must reject such graphs rather
  /// than miscompile, which is what the robustness tests exercise.
  template <typename PredT> void removeEdgesIf(PredT Pred) {
    Edges.erase(std::remove_if(Edges.begin(), Edges.end(), Pred),
                Edges.end());
    reindexEdges();
  }

private:
  const Function *F = nullptr;
  const Loop *L = nullptr;
  std::vector<LoopStmt> Stmts;
  std::vector<uint32_t> IdToIndex; // StmtId -> index, ~0u outside the body.
  std::vector<DepEdge> Edges;
  // Edge indices of statement SI: OutIdx[OutBegin[SI] .. OutBegin[SI + 1]),
  // likewise for In.
  std::vector<uint32_t> OutBegin, OutIdx;
  std::vector<uint32_t> InBegin, InIdx;
  std::vector<uint32_t> ViolationCandidates;
  double StaticWeight = 0.0;
  double DynamicWeight = 0.0;

  // Body-DAG block reachability (loop-local block index squared).
  std::vector<BlockId> LoopBlocks;    // Loop blocks in RPO.
  std::vector<uint32_t> BlockToLocal; // BlockId -> local index, ~0u outside.
  std::vector<uint8_t> BlockReach;    // [from][to] flattened.

  void addEdge(uint32_t Src, uint32_t Dst, DepKind Kind, bool Cross,
               double Prob);
  /// Fills IdToIndex from Stmts.
  void indexStmtIds();
  /// Rebuilds the adjacency and the violation-candidate list from
  /// Edges (after construction, addConservativeEdge or removeEdgesIf).
  void reindexEdges();
};

} // namespace spt

#endif // SPT_ANALYSIS_DEPGRAPH_H

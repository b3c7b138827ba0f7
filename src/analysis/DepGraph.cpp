//===- analysis/DepGraph.cpp - Annotated loop dependence graph -------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Register dependences come from two reaching-definitions passes over the
// loop body with this loop's back edges cut: the first (intra) starts the
// header with an empty set; the second (cross) starts it with the defs that
// reach the latches, propagated through one iteration with kills but
// without new gens — which captures exactly the distance-1 cross-iteration
// def->use pairs that adjacent-iteration speculation can violate.
//
// Memory dependences pair writers and readers of an alias class (array, or
// the synthetic RNG/IO classes via call summaries). Probabilities come from
// a measured artifact or the in-run dependence profile when present, else
// from frequency ratios with type-based aliasing (EdgePricer).
//
//===----------------------------------------------------------------------===//

#include "analysis/DepGraph.h"

#include "support/Debug.h"

#include <algorithm>
#include <cassert>
#include <span>

using namespace spt;

double spt::opClassWeight(OpClass C) {
  switch (C) {
  case OpClass::IntAlu:
    return 1.0;
  case OpClass::IntMul:
    return 2.0;
  case OpClass::IntDiv:
    return 12.0;
  case OpClass::FpAlu:
    return 2.0;
  case OpClass::FpMul:
    return 2.0;
  case OpClass::FpDiv:
    return 15.0;
  case OpClass::MemLoad:
    return 2.0;
  case OpClass::MemStore:
    return 1.0;
  case OpClass::Branch:
    return 1.0;
  case OpClass::Call:
    return 10.0;
  case OpClass::Marker:
    return 0.0;
  }
  spt_unreachable("unknown op class");
}

namespace {

/// Fixed-width bitset helpers over runs of uint64_t words.
bool testBit(const uint64_t *V, size_t I) {
  return (V[I / 64] >> (I % 64)) & 1;
}
void setBit(uint64_t *V, size_t I) { V[I / 64] |= uint64_t(1) << (I % 64); }
void clearBit(uint64_t *V, size_t I) {
  V[I / 64] &= ~(uint64_t(1) << (I % 64));
}

/// The statement numbering and register reaching definitions of one loop
/// body: what LoopDepGraph::build and valueWatchCandidates share.
struct LoopBody {
  std::vector<BlockId> Blocks;        ///< Loop blocks in RPO.
  std::vector<uint32_t> BlockToLocal; ///< BlockId -> index into Blocks.
  std::vector<uint32_t> BlockBegin;   ///< First statement of each block.
  /// Statements in block order with Id, Block, Index, I and IterFreq set;
  /// Weight and Movable are left to build().
  std::vector<LoopStmt> Stmts;

  std::vector<uint32_t> DefStmt; ///< Def id -> statement index.
  std::vector<uint32_t> StmtDef; ///< Statement index -> def id, or ~0u.
  /// Def ids of each register, ascending: RegDefs[RegDefBegin[R] ..
  /// RegDefBegin[R + 1]). Registers above the highest one a loop
  /// statement defines have no entry.
  std::vector<uint32_t> RegDefBegin;
  std::vector<uint32_t> RegDefs;

  /// Reaching-def sets at each block's entry, Words 64-bit words per
  /// block: the intra pass (gens added) and the carried pass (the defs
  /// reaching the latches, propagated with kills only).
  size_t Words = 0;
  std::vector<uint64_t> IntraIn;
  std::vector<uint64_t> CarriedIn;

  uint32_t numBlocks() const { return static_cast<uint32_t>(Blocks.size()); }
  uint32_t numRegs() const {
    return static_cast<uint32_t>(RegDefBegin.size() - 1);
  }
  std::span<const uint32_t> defsOf(Reg R) const {
    if (R >= numRegs())
      return {};
    return {RegDefs.data() + RegDefBegin[R],
            RegDefs.data() + RegDefBegin[R + 1]};
  }
  /// Kills every def of \p I's destination in \p Set.
  void killDefsOf(const Instr &I, uint64_t *Set) const {
    if (I.Dst != NoReg)
      for (uint32_t D : defsOf(I.Dst))
        clearBit(Set, D);
  }
};

LoopBody analyzeLoopBody(const Function &F, const CfgInfo &Cfg,
                         const Loop &L, const FreqInfo &Freq) {
  LoopBody B;

  // Statements, in RPO block order.
  B.Blocks = L.Blocks;
  std::sort(B.Blocks.begin(), B.Blocks.end(), [&](BlockId X, BlockId Y) {
    return Cfg.rpoIndex(X) < Cfg.rpoIndex(Y);
  });
  const uint32_t NB = B.numBlocks();
  B.BlockToLocal.assign(F.numBlocks(), ~0u);
  B.BlockBegin.reserve(NB + 1);
  uint32_t NumRegs = 0;
  for (uint32_t Local = 0; Local != NB; ++Local) {
    const BlockId Blk = B.Blocks[Local];
    B.BlockToLocal[Blk] = Local;
    B.BlockBegin.push_back(static_cast<uint32_t>(B.Stmts.size()));
    const BasicBlock *BB = F.block(Blk);
    const double BlockIterFreq = Freq.freqPerIteration(L, Blk);
    for (uint32_t Idx = 0; Idx != BB->Instrs.size(); ++Idx) {
      const Instr &I = BB->Instrs[Idx];
      LoopStmt S;
      S.Id = I.Id;
      S.Block = Blk;
      S.Index = Idx;
      S.I = &I;
      S.IterFreq = BlockIterFreq;
      B.Stmts.push_back(S);
      if (I.Dst != NoReg)
        NumRegs = std::max(NumRegs, I.Dst + 1);
    }
  }
  const uint32_t NumStmts = static_cast<uint32_t>(B.Stmts.size());
  B.BlockBegin.push_back(NumStmts);

  // Def table: statements with a destination register, and each
  // register's defs in statement order.
  B.StmtDef.assign(NumStmts, ~0u);
  B.RegDefBegin.assign(NumRegs + 1, 0);
  for (uint32_t SI = 0; SI != NumStmts; ++SI) {
    const Reg Dst = B.Stmts[SI].I->Dst;
    if (Dst == NoReg)
      continue;
    B.StmtDef[SI] = static_cast<uint32_t>(B.DefStmt.size());
    B.DefStmt.push_back(SI);
    ++B.RegDefBegin[Dst + 1];
  }
  for (uint32_t R = 0; R != NumRegs; ++R)
    B.RegDefBegin[R + 1] += B.RegDefBegin[R];
  const size_t NumDefs = B.DefStmt.size();
  B.RegDefs.resize(NumDefs);
  {
    std::vector<uint32_t> Fill(B.RegDefBegin.begin(),
                               B.RegDefBegin.end() - 1);
    for (uint32_t D = 0; D != NumDefs; ++D)
      B.RegDefs[Fill[B.Stmts[B.DefStmt[D]].I->Dst]++] = D;
  }

  // GEN/KILL per block.
  const size_t W = (NumDefs + 63) / 64;
  B.Words = W;
  std::vector<uint64_t> Gen(NB * W, 0), Kill(NB * W, 0);
  for (uint32_t Local = 0; Local != NB; ++Local) {
    uint64_t *G = Gen.data() + Local * W;
    uint64_t *K = Kill.data() + Local * W;
    for (uint32_t SI = B.BlockBegin[Local]; SI != B.BlockBegin[Local + 1];
         ++SI) {
      const Reg Dst = B.Stmts[SI].I->Dst;
      if (Dst == NoReg)
        continue;
      for (uint32_t D : B.defsOf(Dst)) {
        clearBit(G, D); // Earlier gens of this reg are killed.
        setBit(K, D);
      }
      setBit(G, B.StmtDef[SI]);
    }
  }

  // In-loop predecessors (local indices), this loop's back edges cut.
  std::vector<uint32_t> PredBegin(NB + 1, 0), Preds;
  for (uint32_t Local = 0; Local != NB; ++Local) {
    const BlockId Blk = B.Blocks[Local];
    for (BlockId P : Cfg.preds(Blk))
      if (L.contains(P) && !L.isBackEdge(P, Blk))
        Preds.push_back(B.BlockToLocal[P]);
    PredBegin[Local + 1] = static_cast<uint32_t>(Preds.size());
  }

  // Solves a forward reaching-defs dataflow into In/Out; \p WithGen
  // distinguishes the intra pass (gens added) from the carried pass
  // (kills only). A null \p HeaderIn starts the header empty.
  auto Solve = [&](const uint64_t *HeaderIn, bool WithGen,
                   std::vector<uint64_t> &In, std::vector<uint64_t> &Out) {
    In.assign(NB * W, 0);
    Out.assign(NB * W, 0);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (uint32_t Local = 0; Local != NB; ++Local) {
        uint64_t *NewIn = In.data() + Local * W;
        if (B.Blocks[Local] == L.Header && HeaderIn)
          std::copy(HeaderIn, HeaderIn + W, NewIn);
        else
          std::fill(NewIn, NewIn + W, 0);
        for (uint32_t PI = PredBegin[Local]; PI != PredBegin[Local + 1]; ++PI)
          for (size_t Wd = 0; Wd != W; ++Wd)
            NewIn[Wd] |= Out[Preds[PI] * W + Wd];
        // OUT = (IN - KILL) | GEN   (carried pass: OUT = IN - KILL).
        for (size_t Wd = 0; Wd != W; ++Wd) {
          uint64_t NewOut = NewIn[Wd] & ~Kill[Local * W + Wd];
          if (WithGen)
            NewOut |= Gen[Local * W + Wd];
          if (NewOut != Out[Local * W + Wd]) {
            Out[Local * W + Wd] = NewOut;
            Changed = true;
          }
        }
      }
    }
  };

  std::vector<uint64_t> IntraOut, CarriedOut;
  Solve(nullptr, /*WithGen=*/true, B.IntraIn, IntraOut);

  // Defs carried across the back edge: union of latch OUT sets.
  std::vector<uint64_t> CarryIn(W, 0);
  for (BlockId Latch : L.Latches) {
    const uint64_t *LatchOut = IntraOut.data() + B.BlockToLocal[Latch] * W;
    for (size_t Wd = 0; Wd != W; ++Wd)
      CarryIn[Wd] |= LatchOut[Wd];
  }
  Solve(CarryIn.data(), /*WithGen=*/false, B.CarriedIn, CarriedOut);
  return B;
}

/// Coarse (C-strength type-based) aliasing merges same-element-type
/// arrays into one class; synthetic classes (RNG/IO) stay distinct.
class AliasClassMap {
public:
  AliasClassMap(const Module &M, bool Coarse)
      : M(M), NumArrays(static_cast<uint32_t>(M.numArrays())),
        Coarse(Coarse) {
    for (uint32_t A = 0; A != NumArrays; ++A) {
      if (M.array(A).ElemTy == Type::Int && IntRep == ~0u)
        IntRep = A;
      if (M.array(A).ElemTy == Type::Fp && FpRep == ~0u)
        FpRep = A;
    }
  }

  uint32_t operator()(uint32_t C) const {
    if (!Coarse || C >= NumArrays)
      return C;
    return M.array(C).ElemTy == Type::Int ? IntRep : FpRep;
  }

private:
  const Module &M;
  uint32_t NumArrays;
  bool Coarse;
  uint32_t IntRep = ~0u, FpRep = ~0u;
};

/// The readers and writers of each alias class, in statement order.
struct ClassAccesses {
  std::vector<std::vector<uint32_t>> Readers;
  std::vector<std::vector<uint32_t>> Writers;

  ClassAccesses(const std::vector<LoopStmt> &Stmts,
                const CallEffects &Effects, const AliasClassMap &ClassOf)
      : Readers(Effects.numAliasClasses()),
        Writers(Effects.numAliasClasses()) {
    for (uint32_t SI = 0; SI != Stmts.size(); ++SI) {
      const Instr *I = Stmts[SI].I;
      switch (I->Op) {
      case Opcode::Load:
        Readers[ClassOf(I->arrayId())].push_back(SI);
        break;
      case Opcode::Store:
        Writers[ClassOf(I->arrayId())].push_back(SI);
        break;
      case Opcode::Call: {
        const CallEffects::Effects &E = Effects.effectsOf(I->calleeIndex());
        for (uint32_t C : E.Reads)
          Readers[ClassOf(C)].push_back(SI);
        for (uint32_t C : E.Writes)
          Writers[ClassOf(C)].push_back(SI);
        break;
      }
      default:
        break;
      }
    }
  }
};

double clamp01(double X) { return X < 0.0 ? 0.0 : (X > 1.0 ? 1.0 : X); }

/// Executions of statement \p S recorded in \p P.
uint64_t execCount(const LoopDepProfileData &P, StmtId S) {
  auto It = P.StmtExec.find(S);
  return It == P.StmtExec.end() ? 0 : It->second;
}

/// How often \p R read the value \p W wrote, in the same iteration or
/// (\p Cross) the previous one, per execution of W (\p WExec times). A
/// pair the profile never saw conflict is an answer of zero, which is what
/// lets a profile erase conservative may-alias edges.
double observedRate(const LoopDepProfileData &P, uint64_t WExec, StmtId W,
                    StmtId R, bool Cross) {
  if (WExec == 0)
    return 0.0;
  auto It = P.Pairs.find({W, R});
  if (It == P.Pairs.end())
    return 0.0;
  const uint64_t Hits = Cross ? It->second.Cross : It->second.Intra;
  return clamp01(static_cast<double>(Hits) / static_cast<double>(WExec));
}

/// The edge probabilities of one loop, in the order DepGraphOptions
/// documents.
class EdgePricer {
public:
  EdgePricer(const std::vector<LoopStmt> &Stmts, const DepGraphOptions &Opts)
      : Stmts(Stmts), Measured(Opts.Measured), InRun(Opts.DepProfile),
        CallEffectsInCost(Opts.ModelCallEffectsInCost) {}

  /// The frequency-ratio heuristic: if the source runs FS times per
  /// iteration and the sink FD times, one source execution feeds a sink
  /// execution with probability min(1, FD/FS). A dead source feeds
  /// nothing.
  double heuristic(uint32_t SrcSI, uint32_t DstSI) const {
    const double FS = Stmts[SrcSI].IterFreq;
    if (FS <= 1e-12)
      return 0.0;
    return clamp01(Stmts[DstSI].IterFreq / FS);
  }

  /// Memory-flow probability from writer \p WSI to reader \p RSI.
  double mem(uint32_t WSI, uint32_t RSI, bool Cross) const {
    // Calls excluded from cost estimation when configured (the paper's
    // "globals modified by callees unknown to the caller" blind spot).
    if (!CallEffectsInCost && (Stmts[WSI].I->Op == Opcode::Call ||
                               Stmts[RSI].I->Op == Opcode::Call))
      return 0.0;
    const StmtId W = Stmts[WSI].Id, R = Stmts[RSI].Id;
    // A measured zero is only evidence if the profiling run watched both
    // statements execute; statements it has no record of (clones minted
    // after the measurement) fall through.
    if (Measured) {
      const uint64_t WExec = execCount(*Measured, W);
      if (WExec != 0 && execCount(*Measured, R) != 0)
        return observedRate(*Measured, WExec, W, R, Cross);
    }
    if (InRun)
      return observedRate(*InRun, execCount(*InRun, W), W, R, Cross);
    return heuristic(WSI, RSI);
  }

private:
  const std::vector<LoopStmt> &Stmts;
  const LoopDepProfileData *Measured;
  const LoopDepProfileData *InRun;
  bool CallEffectsInCost;
};

} // namespace

void LoopDepGraph::addEdge(uint32_t Src, uint32_t Dst, DepKind Kind,
                           bool Cross, double Prob) {
  assert(Src < Stmts.size() && Dst < Stmts.size() && "edge out of range");
  Edges.push_back(DepEdge{Src, Dst, Kind, Cross, Prob});
}

bool LoopDepGraph::canPrecedeIntra(uint32_t A, uint32_t B) const {
  const LoopStmt &SA = Stmts[A];
  const LoopStmt &SB = Stmts[B];
  if (SA.Block == SB.Block)
    return SA.Index < SB.Index;
  assert(SA.Block < BlockToLocal.size() && SB.Block < BlockToLocal.size() &&
         BlockToLocal[SA.Block] != ~0u && BlockToLocal[SB.Block] != ~0u &&
         "canPrecedeIntra on a graph without IR blocks");
  const uint32_t LA = BlockToLocal[SA.Block];
  const uint32_t LB = BlockToLocal[SB.Block];
  return BlockReach[LA * LoopBlocks.size() + LB] != 0;
}

void LoopDepGraph::indexStmtIds() {
  StmtId MaxId = 0;
  for (const LoopStmt &S : Stmts)
    if (S.Id != NoStmt)
      MaxId = std::max(MaxId, S.Id + 1);
  IdToIndex.assign(MaxId, ~0u);
  for (uint32_t SI = 0; SI != Stmts.size(); ++SI)
    if (Stmts[SI].Id != NoStmt)
      IdToIndex[Stmts[SI].Id] = SI;
}

LoopDepGraph LoopDepGraph::forSynthetic(std::vector<LoopStmt> SynthStmts,
                                        std::vector<DepEdge> SynthEdges) {
  LoopDepGraph G;
  G.Stmts = std::move(SynthStmts);
  for (uint32_t SI = 0; SI != G.Stmts.size(); ++SI) {
    if (G.Stmts[SI].Id == NoStmt)
      G.Stmts[SI].Id = SI;
    G.StaticWeight += G.Stmts[SI].Weight;
    G.DynamicWeight += G.Stmts[SI].Weight * G.Stmts[SI].IterFreq;
  }
  G.indexStmtIds();
  G.Edges = std::move(SynthEdges);
  for (const DepEdge &E : G.Edges) {
    assert(E.Src < G.Stmts.size() && E.Dst < G.Stmts.size() &&
           "synthetic edge range");
    (void)E;
  }
  G.reindexEdges();
  return G;
}

void LoopDepGraph::reindexEdges() {
  // Compressed adjacency: each statement's edge indices, ascending.
  const size_t N = Stmts.size();
  OutBegin.assign(N + 1, 0);
  InBegin.assign(N + 1, 0);
  for (const DepEdge &E : Edges) {
    ++OutBegin[E.Src + 1];
    ++InBegin[E.Dst + 1];
  }
  for (size_t SI = 0; SI != N; ++SI) {
    OutBegin[SI + 1] += OutBegin[SI];
    InBegin[SI + 1] += InBegin[SI];
  }
  OutIdx.resize(Edges.size());
  InIdx.resize(Edges.size());
  std::vector<uint32_t> OutFill(OutBegin.begin(), OutBegin.end() - 1);
  std::vector<uint32_t> InFill(InBegin.begin(), InBegin.end() - 1);
  for (uint32_t EI = 0; EI != Edges.size(); ++EI) {
    OutIdx[OutFill[Edges[EI].Src]++] = EI;
    InIdx[InFill[Edges[EI].Dst]++] = EI;
  }

  ViolationCandidates.clear();
  std::vector<uint8_t> IsVC(N, 0);
  for (const DepEdge &E : Edges)
    if (E.Cross && isFlowDep(E.Kind) && E.Prob > 1e-9)
      IsVC[E.Src] = 1;
  for (uint32_t SI = 0; SI != N; ++SI)
    if (IsVC[SI])
      ViolationCandidates.push_back(SI);
}

void LoopDepGraph::addConservativeEdge(uint32_t Src, uint32_t Dst,
                                       DepKind Kind, bool Cross,
                                       double Prob) {
  addEdge(Src, Dst, Kind, Cross, Prob);
  reindexEdges();
}

LoopDepGraph LoopDepGraph::build(const Module &M, const Function &F,
                                 const CfgInfo &Cfg, const Loop &L,
                                 const FreqInfo &Freq,
                                 const CallEffects &Effects,
                                 const DepGraphOptions &Opts) {
  LoopBody Body = analyzeLoopBody(F, Cfg, L, Freq);
  LoopDepGraph G;
  G.F = &F;
  G.L = &L;
  G.LoopBlocks = std::move(Body.Blocks);
  G.BlockToLocal = std::move(Body.BlockToLocal);
  G.Stmts = std::move(Body.Stmts);
  G.indexStmtIds();
  const uint32_t NumStmts = static_cast<uint32_t>(G.Stmts.size());
  const uint32_t NB = static_cast<uint32_t>(G.LoopBlocks.size());

  //===--------------------------------------------------------------------===
  // Statement weights and motion freedom.
  //===--------------------------------------------------------------------===
  for (LoopStmt &S : G.Stmts) {
    const Instr &I = *S.I;
    S.Weight = opClassWeight(opcodeClass(I.Op));
    if (I.Op == Opcode::Call && Opts.CallWeights) {
      auto WIt = Opts.CallWeights->find(M.function(I.calleeIndex()));
      if (WIt != Opts.CallWeights->end())
        S.Weight = WIt->second;
    }
    switch (I.Op) {
    case Opcode::Call:
      S.Movable = Effects.effectsOf(I.calleeIndex()).pure() ||
                  Opts.AllowImpureCallMotion;
      break;
    case Opcode::SptFork:
    case Opcode::SptKill:
      S.Movable = false;
      break;
    default:
      S.Movable = true;
      break;
    }
    G.StaticWeight += S.Weight;
    G.DynamicWeight += S.Weight * S.IterFreq;
  }

  //===--------------------------------------------------------------------===
  // Body-DAG block reachability (this loop's back edges cut).
  //===--------------------------------------------------------------------===
  G.BlockReach.assign(size_t(NB) * NB, 0);
  std::vector<uint32_t> Work;
  for (uint32_t From = 0; From != NB; ++From) {
    // DFS over loop blocks, skipping this loop's back edges. The diagonal
    // stays clear: canPrecedeIntra orders a block's own statements by
    // index.
    uint8_t *Reach = G.BlockReach.data() + size_t(From) * NB;
    Work.assign(1, From);
    while (!Work.empty()) {
      const uint32_t Cur = Work.back();
      Work.pop_back();
      const BlockId CurBlock = G.LoopBlocks[Cur];
      for (BlockId T : F.block(CurBlock)->Succs) {
        if (!L.contains(T) || L.isBackEdge(CurBlock, T))
          continue;
        const uint32_t LT = G.BlockToLocal[T];
        if (LT != From && !Reach[LT]) {
          Reach[LT] = 1;
          Work.push_back(LT);
        }
      }
    }
  }

  const EdgePricer Prob(G.Stmts, Opts);

  //===--------------------------------------------------------------------===
  // Register flow: resolve uses against both reaching sets.
  //===--------------------------------------------------------------------===
  const size_t Words = Body.Words;
  std::vector<uint64_t> Intra(Words), Carried(Words);
  for (uint32_t Local = 0; Local != NB; ++Local) {
    std::copy_n(Body.IntraIn.data() + Local * Words, Words, Intra.data());
    std::copy_n(Body.CarriedIn.data() + Local * Words, Words, Carried.data());
    for (uint32_t UseSI = Body.BlockBegin[Local];
         UseSI != Body.BlockBegin[Local + 1]; ++UseSI) {
      const Instr &I = *G.Stmts[UseSI].I;
      for (Reg R : I.Srcs) {
        // A register defined only outside the loop has no loop dependence.
        for (uint32_t D : Body.defsOf(R)) {
          const uint32_t DefSI = Body.DefStmt[D];
          if (testBit(Intra.data(), D) && DefSI != UseSI)
            G.addEdge(DefSI, UseSI, DepKind::FlowReg, /*Cross=*/false,
                      Prob.heuristic(DefSI, UseSI));
          if (testBit(Carried.data(), D))
            G.addEdge(DefSI, UseSI, DepKind::FlowReg, /*Cross=*/true,
                      Prob.heuristic(DefSI, UseSI));
        }
      }
      if (I.Dst != NoReg) {
        Body.killDefsOf(I, Intra.data());
        Body.killDefsOf(I, Carried.data());
        setBit(Intra.data(), Body.StmtDef[UseSI]);
      }
    }
  }

  // Register anti and output dependences (intra-iteration ordering
  // constraints for code-motion legality). The uses of each register the
  // loop defines, in statement order, gathered in one pass.
  const uint32_t NumRegs = Body.numRegs();
  std::vector<uint32_t> UseBegin(NumRegs + 1, 0), Uses;
  auto forEachDistinctDefinedSrc = [&](const Instr &I, auto Fn) {
    for (size_t K = 0; K != I.Srcs.size(); ++K) {
      const Reg R = I.Srcs[K];
      if (Body.defsOf(R).empty() ||
          std::find(I.Srcs.begin(), I.Srcs.begin() + K, R) !=
              I.Srcs.begin() + K)
        continue;
      Fn(R);
    }
  };
  for (const LoopStmt &S : G.Stmts)
    forEachDistinctDefinedSrc(*S.I, [&](Reg R) { ++UseBegin[R + 1]; });
  for (uint32_t R = 0; R != NumRegs; ++R)
    UseBegin[R + 1] += UseBegin[R];
  Uses.resize(UseBegin[NumRegs]);
  {
    std::vector<uint32_t> Fill(UseBegin.begin(), UseBegin.end() - 1);
    for (uint32_t SI = 0; SI != NumStmts; ++SI)
      forEachDistinctDefinedSrc(*G.Stmts[SI].I,
                                [&](Reg R) { Uses[Fill[R]++] = SI; });
  }
  for (Reg R = 0; R != NumRegs; ++R) {
    const std::span<const uint32_t> Ds = Body.defsOf(R);
    for (uint32_t D : Ds) {
      const uint32_t DefSI = Body.DefStmt[D];
      for (uint32_t U = UseBegin[R]; U != UseBegin[R + 1]; ++U) {
        const uint32_t UseSI = Uses[U];
        if (UseSI != DefSI && G.canPrecedeIntra(UseSI, DefSI))
          G.addEdge(UseSI, DefSI, DepKind::AntiReg, /*Cross=*/false, 1.0);
      }
      for (uint32_t D2 : Ds) {
        const uint32_t Def2SI = Body.DefStmt[D2];
        if (DefSI != Def2SI && G.canPrecedeIntra(DefSI, Def2SI))
          G.addEdge(DefSI, Def2SI, DepKind::OutReg, /*Cross=*/false, 1.0);
      }
    }
  }

  //===--------------------------------------------------------------------===
  // Memory dependences per alias class.
  //===--------------------------------------------------------------------===
  const ClassAccesses Access(G.Stmts, Effects,
                             AliasClassMap(M, Opts.CoarseAliasClasses));
  for (uint32_t C = 0; C != Effects.numAliasClasses(); ++C) {
    for (uint32_t W : Access.Writers[C]) {
      for (uint32_t R : Access.Readers[C]) {
        if (W != R && G.canPrecedeIntra(W, R))
          G.addEdge(W, R, DepKind::FlowMem, /*Cross=*/false,
                    Prob.mem(W, R, /*Cross=*/false));
        const double PCross = Prob.mem(W, R, /*Cross=*/true);
        if (PCross > 1e-9)
          G.addEdge(W, R, DepKind::FlowMem, /*Cross=*/true, PCross);
      }
      for (uint32_t W2 : Access.Writers[C])
        if (W != W2 && G.canPrecedeIntra(W, W2))
          G.addEdge(W, W2, DepKind::OutMem, /*Cross=*/false, 1.0);
    }
    for (uint32_t R : Access.Readers[C])
      for (uint32_t W : Access.Writers[C])
        if (R != W && G.canPrecedeIntra(R, W))
          G.addEdge(R, W, DepKind::AntiMem, /*Cross=*/false, 1.0);
  }

  //===--------------------------------------------------------------------===
  // Control dependences.
  //===--------------------------------------------------------------------===
  for (uint32_t SI = 0; SI != NumStmts; ++SI) {
    for (const CfgInfo::ControlDep &CD : Cfg.controlDeps(G.Stmts[SI].Block)) {
      if (!L.contains(CD.Branch))
        continue;
      // The branch is its block's terminator, the block's last statement.
      const uint32_t BranchSI =
          Body.BlockBegin[G.BlockToLocal[CD.Branch] + 1] - 1;
      if (BranchSI == SI)
        continue;
      G.addEdge(BranchSI, SI, DepKind::Control, /*Cross=*/false,
                Prob.heuristic(BranchSI, SI));
    }
  }

  //===--------------------------------------------------------------------===
  // Deduplicate edges: keep the maximum probability per (Src, Dst, Kind,
  // Cross), the first one among equals, in that key order. Two stable
  // counting sorts, by (Dst, Kind, Cross) and then by Src, give the key
  // order with equal keys in insertion order.
  //===--------------------------------------------------------------------===
  {
    constexpr uint32_t NumKindCross =
        2 * (static_cast<uint32_t>(DepKind::Control) + 1);
    auto kindCross = [](const DepEdge &E) {
      return 2 * static_cast<uint32_t>(E.Kind) + (E.Cross ? 1 : 0);
    };
    std::vector<DepEdge> Sorted(G.Edges.size());
    std::vector<uint32_t> Slot;
    auto countingSort = [&](size_t NumKeys, auto KeyOf) {
      Slot.assign(NumKeys + 1, 0);
      for (const DepEdge &E : G.Edges)
        ++Slot[KeyOf(E) + 1];
      for (size_t K = 0; K != NumKeys; ++K)
        Slot[K + 1] += Slot[K];
      for (const DepEdge &E : G.Edges)
        Sorted[Slot[KeyOf(E)]++] = E;
      G.Edges.swap(Sorted);
    };
    countingSort(size_t(NumStmts) * NumKindCross, [&](const DepEdge &E) {
      return E.Dst * NumKindCross + kindCross(E);
    });
    countingSort(NumStmts, [](const DepEdge &E) { return E.Src; });

    size_t Kept = 0;
    for (size_t EI = 0; EI != G.Edges.size(); ++EI) {
      const DepEdge &E = G.Edges[EI];
      if (Kept != 0) {
        DepEdge &Last = G.Edges[Kept - 1];
        if (E.Src == Last.Src && E.Dst == Last.Dst && E.Kind == Last.Kind &&
            E.Cross == Last.Cross) {
          if (E.Prob > Last.Prob)
            Last.Prob = E.Prob;
          continue;
        }
      }
      G.Edges[Kept++] = E;
    }
    G.Edges.resize(Kept);
  }

  G.reindexEdges();
  return G;
}

std::vector<StmtId> LoopDepGraph::valueWatchCandidates(
    const Module &M, const Function &F, const CfgInfo &Cfg, const Loop &L,
    const FreqInfo &Freq, const CallEffects &Effects,
    const DepGraphOptions &Opts) {
  const LoopBody Body = analyzeLoopBody(F, Cfg, L, Freq);
  const std::vector<LoopStmt> &Stmts = Body.Stmts;
  const uint32_t NumStmts = static_cast<uint32_t>(Stmts.size());
  const EdgePricer Prob(Stmts, Opts);

  // Int-typed register defs start Open and become Watched at their first
  // cross-iteration flow probability above 1e-9.
  enum : uint8_t { Skip, Open, Watched };
  std::vector<uint8_t> State(NumStmts, Skip);
  for (uint32_t SI = 0; SI != NumStmts; ++SI)
    if (Stmts[SI].I->Dst != NoReg && Stmts[SI].I->Ty == Type::Int)
      State[SI] = Open;

  // Register flow: a def the carried pass brings to a use.
  const size_t Words = Body.Words;
  std::vector<uint64_t> Carried(Words);
  for (uint32_t Local = 0; Local != Body.numBlocks(); ++Local) {
    std::copy_n(Body.CarriedIn.data() + Local * Words, Words, Carried.data());
    for (uint32_t UseSI = Body.BlockBegin[Local];
         UseSI != Body.BlockBegin[Local + 1]; ++UseSI) {
      const Instr &I = *Stmts[UseSI].I;
      for (Reg R : I.Srcs)
        for (uint32_t D : Body.defsOf(R)) {
          const uint32_t DefSI = Body.DefStmt[D];
          if (State[DefSI] == Open && testBit(Carried.data(), D) &&
              Prob.heuristic(DefSI, UseSI) > 1e-9)
            State[DefSI] = Watched;
        }
      Body.killDefsOf(I, Carried.data());
    }
  }

  // Memory flow: an Int-returning call (the only register-defining memory
  // writer) writing a class some loop statement reads, priced as build
  // prices it.
  auto isOpenCall = [&](uint32_t SI) {
    return State[SI] == Open && Stmts[SI].I->Op == Opcode::Call;
  };
  bool AnyOpenCall = false;
  for (uint32_t SI = 0; SI != NumStmts; ++SI)
    AnyOpenCall |= isOpenCall(SI);
  if (AnyOpenCall) {
    const AliasClassMap ClassOf(M, Opts.CoarseAliasClasses);
    const ClassAccesses Access(Stmts, Effects, ClassOf);
    for (uint32_t SI = 0; SI != NumStmts; ++SI) {
      if (!isOpenCall(SI))
        continue;
      const CallEffects::Effects &E =
          Effects.effectsOf(Stmts[SI].I->calleeIndex());
      for (auto C = E.Writes.begin(); C != E.Writes.end() && State[SI] == Open;
           ++C)
        for (uint32_t R : Access.Readers[ClassOf(*C)])
          if (Prob.mem(SI, R, /*Cross=*/true) > 1e-9) {
            State[SI] = Watched;
            break;
          }
    }
  }

  std::vector<StmtId> Ids;
  for (uint32_t SI = 0; SI != NumStmts; ++SI)
    if (State[SI] == Watched)
      Ids.push_back(Stmts[SI].Id);
  return Ids;
}

//===- profile/Profiler.cpp - Edge, dependence and value profiling ---------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The profiler is a concrete step sink: the interpreter's decoded engine
// is instantiated with ProfilerRun (Interpreter::runWith), so its onStep
// is inlined into every opcode handler, where the record kind is a
// constant. A plain value op then only counts the step (and its block
// entry), checks the value watch and the cancel stride; memory, call,
// return and branch work runs out of line. No per-step path does a map or
// set lookup or a heap allocation: it counts into flat tables, which are
// copied into the ProfileBundle maps once, when the run ends.
//
// Dependences are found LAMP-style, with a last-writer shadow memory and
// per-activation step stamps:
//
//  - Shadow memory. One 32-byte WriteSlot per 8-byte element, indexed by
//    Addr >> 3 over the module's array layout (arrayBaseLayout). Slots 1
//    and 2 are the rnd() and print_* pseudo-addresses. The table is an
//    anonymous mapping, so elements that are never written cost no
//    resident memory and the pages go back to the OS when the run ends.
//    (calloc gives that only while malloc serves the block with mmap;
//    after a large free, glibc's adaptive threshold serves the next table
//    of that size from the heap and clears it, every page resident.) An
//    address outside the table goes to a side hash map. A slot holds
//    the last write: its step number, statement and frame depth, and the
//    call sites in frames 0..2 that led to it. A writer deeper than that
//    also records its call chain, interned once per call (Chains).
//  - Stamps. Every live loop activation keeps three step numbers: when it
//    started, when its current iteration started and when the previous
//    one did. A read of a slot written at step W is a dependence in each
//    live activation A with A.Start < W: A is live now and started before
//    the write, so it was live at the write, in the same frame. The
//    iteration distance is 0 when W > A.Cur, 1 when W > A.Prev and 2 or
//    more otherwise. Live activations form one stack whose start stamps
//    grow from the entry frame inwards, so the matches are a prefix of it.
//
// The counts must equal, one for one, those of a profiler that stores a
// tag per live activation on every store and scans them on every read:
// testing/ReferenceProfiler.h is that profiler, and the profile tests and
// the profile-diff fuzz oracle compare the two.
//
//===----------------------------------------------------------------------===//

#include "profile/Profiler.h"

#include "analysis/Cfg.h"
#include "analysis/LoopInfo.h"
#include "interp/Decode.h"
#include "interp/DecodeEngine.h"
#include "support/Compiler.h"
#include "support/WrapMath.h"

#include <algorithm>
#include <bit>
#include <map>
#include <unordered_map>

#include <sys/mman.h>

using namespace spt;

namespace {

/// Synthetic addresses for the hidden state of stateful builtins; both lie
/// below the first array base (0x1000), so they never collide with data.
constexpr uint64_t RngAddr = 8;
constexpr uint64_t IoAddr = 16;

/// Call sites a WriteSlot stores inline: those in frames 0..InlineSites-1.
constexpr uint32_t InlineSites = 3;

/// The last write of one address.
struct WriteSlot {
  uint64_t Step;  ///< Step number of the write; 0 = never written.
  StmtId Stmt;    ///< The writing statement.
  uint32_t Depth; ///< Its frame depth (0 = the entry frame).
  /// Site[D]: the Call in frame D that led to the writer (D < Depth).
  StmtId Site[InlineSites];
  /// The writer frame's call-chain node when Depth > InlineSites.
  uint32_t Chain;
};
static_assert(sizeof(WriteSlot) == 32, "a slot should fill half a line");

/// Last-writer table: dense over the array address space, a side map for
/// anything else.
class ShadowMemory {
public:
  explicit ShadowMemory(const Module &M) {
    const std::vector<uint64_t> Bases = arrayBaseLayout(M);
    uint64_t End = 0x1000;
    if (!Bases.empty())
      End = Bases.back() +
            M.array(static_cast<uint32_t>(Bases.size() - 1)).Size * 8;
    Bytes = (End >> 3) * sizeof(WriteSlot);
    void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P != MAP_FAILED) {
      Slots = static_cast<WriteSlot *>(P);
      NumSlots = End >> 3;
    }
  }
  ~ShadowMemory() {
    if (Slots)
      munmap(Slots, Bytes);
  }
  ShadowMemory(const ShadowMemory &) = delete;
  ShadowMemory &operator=(const ShadowMemory &) = delete;

  WriteSlot &forWrite(uint64_t Addr) {
    if (dense(Addr))
      return Slots[Addr >> 3];
    return Side[Addr];
  }

  /// Null when \p Addr was never written.
  const WriteSlot *forRead(uint64_t Addr) const {
    if (dense(Addr))
      return Slots[Addr >> 3].Step ? &Slots[Addr >> 3] : nullptr;
    auto It = Side.find(Addr);
    return It == Side.end() ? nullptr : &It->second;
  }

private:
  bool dense(uint64_t Addr) const {
    return (Addr >> 3) < NumSlots && (Addr & 7) == 0;
  }

  WriteSlot *Slots = nullptr;
  uint64_t NumSlots = 0;
  size_t Bytes = 0;
  std::unordered_map<uint64_t, WriteSlot> Side;
};

/// (writer, reader) -> counts for one loop: open addressing, linear
/// probing, keyed writer << 32 | reader.
class PairTable {
public:
  MemDepCounts &at(StmtId Writer, StmtId Reader) {
    if (Used * 2 >= Entries.size())
      grow();
    const uint64_t Key = (uint64_t(Writer) << 32) | Reader;
    for (size_t I = slotOf(Key);; I = (I + 1) & (Entries.size() - 1)) {
      Entry &E = Entries[I];
      if (E.Key == Key)
        return E.Counts;
      if (E.Key == EmptyKey) {
        E.Key = Key;
        ++Used;
        return E.Counts;
      }
    }
  }

  /// Appends every (writer, reader) -> counts entry to \p Out, in key
  /// order.
  void copyTo(std::map<std::pair<StmtId, StmtId>, MemDepCounts> &Out) const {
    std::vector<const Entry *> Sorted;
    Sorted.reserve(Used);
    for (const Entry &E : Entries)
      if (E.Key != EmptyKey)
        Sorted.push_back(&E);
    std::sort(Sorted.begin(), Sorted.end(),
              [](const Entry *A, const Entry *B) { return A->Key < B->Key; });
    for (const Entry *E : Sorted)
      Out.emplace_hint(Out.end(),
                       std::make_pair(static_cast<StmtId>(E->Key >> 32),
                                      static_cast<StmtId>(E->Key)),
                       E->Counts);
  }

private:
  /// (NoStmt, NoStmt): never a real pair, since both sides are attributed.
  static constexpr uint64_t EmptyKey = ~0ull;
  struct Entry {
    uint64_t Key = EmptyKey;
    MemDepCounts Counts;
  };

  size_t slotOf(uint64_t Key) const {
    return static_cast<size_t>((Key * 0x9e3779b97f4a7c15ull) >> Shift);
  }

  void grow() {
    std::vector<Entry> Old = std::move(Entries);
    Entries.assign(Old.empty() ? 16 : Old.size() * 2, Entry());
    Shift = 64 - static_cast<unsigned>(std::countr_zero(Entries.size()));
    for (const Entry &E : Old) {
      if (E.Key == EmptyKey)
        continue;
      size_t I = slotOf(E.Key);
      while (Entries[I].Key != EmptyKey)
        I = (I + 1) & (Entries.size() - 1);
      Entries[I] = E;
    }
  }

  std::vector<Entry> Entries;
  size_t Used = 0;
  unsigned Shift = 64;
};

/// Everything measured for one loop of one function; ids are dense, in
/// the order functions are first entered.
struct LoopRecord {
  const Function *F = nullptr;
  const Loop *L = nullptr;
  uint64_t Activations = 0;
  uint64_t Iterations = 0;
  /// Executions per StmtId while the loop was active in the top frame;
  /// sized on the first activation. The last entry counts statements
  /// without an id (NoStmt).
  std::vector<uint64_t> Exec;
  PairTable Pairs;
};

/// One live loop activation, in the run-wide activation stack.
struct Activation {
  uint64_t Start; ///< Step at which the activation began.
  uint64_t Cur;   ///< Step at which its current iteration began.
  uint64_t Prev;  ///< Step at which its previous iteration began.
  uint32_t Rec;   ///< LoopRecord id.
  uint32_t Depth; ///< Frame depth.
};

/// Per-function tables, indexed by module function index.
struct FuncState {
  const Function *F = nullptr;
  StatefulBuiltin Builtin = StatefulBuiltin::None;
  /// One past the largest statement id in F (NoStmt aside).
  uint32_t NumStmts = 0;
  /// Built on first entry when dependences are collected.
  bool Analyzed = false;
  LoopNest Nest;
  /// BlockId -> LoopRecord id of the loop it heads, or -1.
  std::vector<int32_t> HeaderRec;
  /// StmtId -> value-watch slot, or -1; empty when nothing is watched.
  std::vector<int32_t> WatchSlot;
  /// Three counters per block: entries, then the taken counts of
  /// Succs[0] and Succs[1]. Empty until F executes its first step.
  std::vector<uint64_t> Counts;
};

/// Shadow of one interpreter frame.
struct ShadowFrame {
  FuncState *FS = nullptr;
  /// The Call statement in the *parent* frame that created this frame
  /// (NoStmt for the outermost frame).
  StmtId CallSite = NoStmt;
  uint32_t ActBegin = 0; ///< This frame's first activation in Acts.
  uint32_t Chain = 0;    ///< Call-chain node (frames deeper than InlineSites).
};

/// One interned call-chain node: the frame's call site and its parent's
/// node. Node 0 is the root, shared by every frame at depth <= InlineSites.
struct ChainNode {
  uint32_t Parent;
  StmtId Site;
};

/// Running state for one value-watched statement.
struct ValueWatchState {
  static constexpr size_t MaxDiffs = 64;
  const Function *F = nullptr;
  StmtId Stmt = NoStmt;
  bool HasLast = false;
  int64_t Last = 0;
  uint64_t Samples = 0;
  /// (delta, count), at most MaxDiffs distinct deltas.
  std::vector<std::pair<int64_t, uint64_t>> Diffs;
};

class ProfilerRun {
public:
  ProfilerRun(const Module &M, const ProfilerOptions &Opts);

  ProfileBundle run(const std::string &FnName, const std::vector<Value> &Args);

  /// The per-step handler (see the file comment).
  SPT_ALWAYS_INLINE bool onStep(const StepResult &R) {
    ++Steps;

    // Edge profile.
    if (CollectEdges) {
      if (SPT_UNLIKELY(!CurCounts))
        allocateCounts();
      uint64_t *C = CurCounts + 3 * R.Block;
      if (R.Index == 0)
        ++C[0];
      if (R.IsBranch)
        ++C[R.I->Op == Opcode::Br && !R.BranchTaken ? 2 : 1];
    }

    // Dependence profile.
    if (CollectDeps) {
      if (R.IsLoad)
        onLoad(R.Addr, R.I->Id);
      else if (R.IsStore)
        onStore(R.Addr, R.I->Id);
      else if (R.IsCallEnter || (R.isValueOp() && R.I->Op == Opcode::Call))
        onCall(*R.I);
    }

    // Value profile (integer results only). Calls into defined functions
    // produce their value at the matching return, not at call entry.
    if (!Watches.empty() && !R.IsCallEnter && R.I->Dst != NoReg &&
        R.I->Ty == Type::Int)
      if (const int32_t Slot = watchSlot(*Cur, R.I->Id); Slot >= 0)
        onValueSample(Slot, R.Result.I);

    // Stack and control-flow shadowing.
    if (R.IsCallEnter || R.IsReturn || (R.IsBranch && CollectDeps))
      onControl(R);

    // Token poll stride: cheap relative to an interpreted step, frequent
    // enough that a request deadline stops a runaway profile within
    // microseconds rather than after the full step budget. Polled after
    // the record so "cancelled after N steps" matches the old pre-step
    // check.
    constexpr uint64_t CancelCheckStride = 16384;
    if (SPT_UNLIKELY(Opts.Cancel && Steps % CancelCheckStride == 0))
      return !pollCancel();
    return true;
  }

private:
  SPT_NOINLINE void allocateCounts();
  SPT_NOINLINE void onLoad(uint64_t Addr, StmtId TopStmt);
  SPT_NOINLINE void onStore(uint64_t Addr, StmtId TopStmt);
  SPT_NOINLINE void onCall(const Instr &I);
  SPT_NOINLINE void onControl(const StepResult &R);
  /// True (and the bundle marked cancelled) when the token fired.
  SPT_NOINLINE bool pollCancel();
  void analyze(FuncState &FS);
  void pushFrame(uint32_t FnIndex, StmtId CallSite);
  void popFrame();
  void enterBlock(BlockId To);
  void bumpStmtExec(StmtId TopStmt);
  void onMemWrite(uint64_t Addr, StmtId TopStmt);
  void onMemRead(uint64_t Addr, StmtId TopStmt);
  /// The writer's attributed statement in frame \p Depth < S.Depth.
  StmtId writerSite(const WriteSlot &S, uint32_t Depth);
  uint32_t internChain(uint32_t Parent, StmtId Site);
  SPT_ALWAYS_INLINE static int32_t watchSlot(const FuncState &FS,
                                             StmtId Stmt) {
    return Stmt < FS.WatchSlot.size() ? FS.WatchSlot[Stmt] : -1;
  }
  void onValueSample(int32_t Slot, int64_t V);
  void finish();

  const Module &M;
  const ProfilerOptions &Opts;
  const bool CollectEdges, CollectDeps, Attribute;
  ProfileBundle Bundle;

  std::vector<FuncState> Funcs;
  std::vector<LoopRecord> Recs;
  std::vector<ShadowFrame> Shadow;
  std::vector<Activation> Acts;
  /// The executing function and its edge counters (null until it has
  /// executed a step).
  FuncState *Cur = nullptr;
  uint64_t *CurCounts = nullptr;

  ShadowMemory Memory;
  /// CurSites[D] = Shadow[D + 1].CallSite for frames below the top.
  StmtId CurSites[InlineSites] = {NoStmt, NoStmt, NoStmt};
  std::vector<ChainNode> Chains;
  std::unordered_map<uint64_t, uint32_t> ChainIds;
  /// Per-read scratch: sites of frames >= InlineSites of the slot read.
  std::vector<StmtId> DeepSites;
  bool DeepSitesValid = false;

  std::vector<ValueWatchState> Watches;
  uint64_t Steps = 0;
};

ProfilerRun::ProfilerRun(const Module &M, const ProfilerOptions &Opts)
    : M(M), Opts(Opts), CollectEdges(Opts.CollectEdges),
      CollectDeps(Opts.CollectDeps), Attribute(Opts.AttributeCalleeAccesses),
      Memory(M) {
  Funcs.resize(M.numFunctions());
  std::unordered_map<const Function *, uint32_t> IndexOf;
  for (uint32_t I = 0; I != M.numFunctions(); ++I) {
    FuncState &FS = Funcs[I];
    FS.F = M.function(I);
    IndexOf[FS.F] = I;
    FS.Builtin = statefulBuiltinOf(*FS.F);
    FS.NumStmts = FS.F->maxStmtId();
    for (const auto &BB : *FS.F)
      for (const Instr &I : BB->Instrs)
        if (I.Id != NoStmt)
          FS.NumStmts = std::max(FS.NumStmts, I.Id + 1);
  }

  if (Opts.CollectValues)
    for (const auto &[F, Stmt] : Opts.ValueWatch) {
      auto It = IndexOf.find(F);
      if (It == IndexOf.end() || Stmt >= Funcs[It->second].NumStmts)
        continue; // No instruction can ever match it.
      FuncState &FS = Funcs[It->second];
      if (FS.WatchSlot.empty())
        FS.WatchSlot.assign(FS.NumStmts, -1);
      FS.WatchSlot[Stmt] = static_cast<int32_t>(Watches.size());
      Watches.emplace_back();
      Watches.back().F = F;
      Watches.back().Stmt = Stmt;
    }

  Chains.push_back(ChainNode{0, NoStmt});
}

void ProfilerRun::analyze(FuncState &FS) {
  FS.Analyzed = true;
  FS.Nest = LoopNest::compute(*FS.F, CfgInfo::compute(*FS.F));
  FS.HeaderRec.assign(FS.F->numBlocks(), -1);
  for (uint32_t LI = 0; LI != FS.Nest.numLoops(); ++LI) {
    const Loop *L = FS.Nest.loop(LI);
    FS.HeaderRec[L->Header] = static_cast<int32_t>(Recs.size());
    Recs.emplace_back();
    Recs.back().F = FS.F;
    Recs.back().L = L;
  }
}

uint32_t ProfilerRun::internChain(uint32_t Parent, StmtId Site) {
  auto [It, Inserted] = ChainIds.try_emplace(
      (uint64_t(Parent) << 32) | Site, static_cast<uint32_t>(Chains.size()));
  if (Inserted)
    Chains.push_back(ChainNode{Parent, Site});
  return It->second;
}

void ProfilerRun::pushFrame(uint32_t FnIndex, StmtId CallSite) {
  FuncState &FS = Funcs[FnIndex];
  const size_t Depth = Shadow.size();
  uint32_t Chain = 0;
  if (CollectDeps && Attribute && Depth != 0) {
    if (Depth <= InlineSites)
      CurSites[Depth - 1] = CallSite;
    else
      Chain = internChain(Shadow.back().Chain, CallSite);
  }
  Shadow.push_back(
      ShadowFrame{&FS, CallSite, static_cast<uint32_t>(Acts.size()), Chain});
  Cur = &FS;
  CurCounts = FS.Counts.empty() ? nullptr : FS.Counts.data();
  if (CollectDeps) {
    if (!FS.Analyzed)
      analyze(FS);
    enterBlock(FS.F->entry());
  }
}

void ProfilerRun::popFrame() {
  Acts.resize(Shadow.back().ActBegin);
  Shadow.pop_back();
  if (Shadow.empty())
    return;
  Cur = Shadow.back().FS;
  CurCounts = Cur->Counts.empty() ? nullptr : Cur->Counts.data();
}

void ProfilerRun::enterBlock(BlockId To) {
  // Leave loops that do not contain the new block.
  const uint32_t Begin = Shadow.back().ActBegin;
  while (Acts.size() > Begin && !Recs[Acts.back().Rec].L->contains(To))
    Acts.pop_back();

  const int32_t RecId = Cur->HeaderRec[To];
  if (RecId < 0)
    return;
  LoopRecord &LR = Recs[RecId];
  ++LR.Iterations;
  if (Acts.size() > Begin && Acts.back().Rec == static_cast<uint32_t>(RecId)) {
    // Back edge: a new iteration of the innermost active loop.
    Activation &A = Acts.back();
    A.Prev = A.Cur;
    A.Cur = Steps;
    return;
  }
  // Fresh activation.
  if (LR.Activations++ == 0)
    LR.Exec.assign(Cur->NumStmts + 1, 0);
  Acts.push_back(Activation{Steps, Steps, Steps, static_cast<uint32_t>(RecId),
                            static_cast<uint32_t>(Shadow.size() - 1)});
}

void ProfilerRun::bumpStmtExec(StmtId TopStmt) {
  // Executions of a memory-touching statement, counted in every loop of
  // the top frame that contains it.
  const StmtId Index = std::min(TopStmt, Cur->NumStmts);
  for (size_t I = Shadow.back().ActBegin; I < Acts.size(); ++I)
    ++Recs[Acts[I].Rec].Exec[Index];
}

void ProfilerRun::onMemWrite(uint64_t Addr, StmtId TopStmt) {
  WriteSlot &S = Memory.forWrite(Addr);
  S.Step = Steps;
  S.Stmt = TopStmt;
  S.Depth = static_cast<uint32_t>(Shadow.size() - 1);
  std::copy(CurSites, CurSites + InlineSites, S.Site);
  S.Chain = Shadow.back().Chain;
}

StmtId ProfilerRun::writerSite(const WriteSlot &S, uint32_t Depth) {
  if (Depth < InlineSites)
    return S.Site[Depth];
  if (!DeepSitesValid) {
    // Node of frame K holds the site in frame K - 1; walk from the
    // writer's frame up to frame InlineSites + 1.
    DeepSites.resize(S.Depth);
    uint32_t Node = S.Chain;
    for (uint32_t K = S.Depth; K > InlineSites; --K) {
      DeepSites[K - 1] = Chains[Node].Site;
      Node = Chains[Node].Parent;
    }
    DeepSitesValid = true;
  }
  return DeepSites[Depth];
}

void ProfilerRun::onMemRead(uint64_t Addr, StmtId TopStmt) {
  const WriteSlot *S = Memory.forRead(Addr);
  if (!S)
    return;
  const uint64_t W = S->Step;
  const uint32_t Top = static_cast<uint32_t>(Shadow.size() - 1);
  size_t I = 0;
  if (!Attribute) {
    // Without attribution only a write and a read in the same frame pair
    // up.
    if (S->Depth != Top)
      return;
    I = Shadow.back().ActBegin;
  }
  DeepSitesValid = false;
  for (; I < Acts.size(); ++I) {
    const Activation &A = Acts[I];
    if (A.Start >= W)
      break; // This and every later activation began after the write.
    const uint32_t D = A.Depth;
    const StmtId Writer = D == S->Depth ? S->Stmt : writerSite(*S, D);
    const StmtId Reader = D == Top ? TopStmt : Shadow[D + 1].CallSite;
    if (Writer == NoStmt || Reader == NoStmt)
      continue; // Statements without an id are never attributed.
    MemDepCounts &C = Recs[A.Rec].Pairs.at(Writer, Reader);
    if (W > A.Cur)
      ++C.Intra;
    else if (W > A.Prev)
      ++C.Cross;
    else
      ++C.Far;
  }
}

void ProfilerRun::onValueSample(int32_t Slot, int64_t V) {
  ValueWatchState &S = Watches[Slot];
  if (S.HasLast) {
    ++S.Samples;
    const int64_t Diff = wrapSub(V, S.Last);
    auto It = std::find_if(S.Diffs.begin(), S.Diffs.end(),
                           [&](const auto &E) { return E.first == Diff; });
    if (It != S.Diffs.end())
      ++It->second;
    else if (S.Diffs.size() < ValueWatchState::MaxDiffs)
      S.Diffs.emplace_back(Diff, 1);
  }
  S.HasLast = true;
  S.Last = V;
}

void ProfilerRun::finish() {
  for (FuncState &FS : Funcs) {
    if (FS.Counts.empty())
      continue;
    FunctionEdgeCounts EC;
    EC.resizeFor(*FS.F);
    for (size_t B = 0; B != EC.Block.size(); ++B) {
      const uint64_t *C = &FS.Counts[3 * B];
      EC.Block[B] = C[0];
      for (size_t S = 0; S != EC.Edge[B].size() && S != 2; ++S)
        EC.Edge[B][S] = C[1 + S];
    }
    Bundle.Edges.PerFunc.emplace(FS.F, std::move(EC));
  }

  for (const LoopRecord &LR : Recs) {
    if (LR.Activations == 0)
      continue;
    LoopDepProfileData D;
    D.Activations = LR.Activations;
    D.Iterations = LR.Iterations;
    const StmtId NoId = static_cast<StmtId>(LR.Exec.size() - 1);
    for (StmtId S = 0; S != LR.Exec.size(); ++S)
      if (LR.Exec[S])
        D.StmtExec.emplace_hint(D.StmtExec.end(), S == NoId ? NoStmt : S,
                                LR.Exec[S]);
    LR.Pairs.copyTo(D.Pairs);
    Bundle.Deps.PerLoop.emplace(std::make_pair(LR.F, LR.L->Id), std::move(D));
  }

  // Stride statistics: the most frequent delta wins, the smallest delta
  // among equals.
  for (const ValueWatchState &S : Watches) {
    if (!S.HasLast)
      continue;
    StrideStats Stats;
    Stats.Samples = S.Samples;
    for (const auto &[Diff, Count] : S.Diffs) {
      if (Diff == 0)
        Stats.SameValue = Count;
      if (Count > Stats.BestStrideHits ||
          (Count == Stats.BestStrideHits && Diff < Stats.BestStride)) {
        Stats.BestStrideHits = Count;
        Stats.BestStride = Diff;
      }
    }
    Bundle.Values.PerStmt[{S.F, S.Stmt}] = Stats;
  }
}

ProfileBundle ProfilerRun::run(const std::string &FnName,
                               const std::vector<Value> &Args) {
  const Function *F = M.findFunction(FnName);
  if (!F) {
    Bundle.Completed = false;
    Bundle.Error = "profileRun: no such function: " + FnName;
    return Bundle;
  }

  InterpOptions IOpts;
  IOpts.RngSeed = Opts.RngSeed;
  Interpreter Machine(M, IOpts);
  Machine.startCall(F, Args);
  pushFrame(M.indexOf(F), NoStmt);

  // A token cancelled before the run starts stops it at zero steps, the
  // same answer the old pre-step poll gave.
  if (Opts.Cancel && Opts.Cancel->cancelled()) {
    Bundle.Completed = false;
    Bundle.Error = "profileRun: cancelled after 0 steps";
  } else {
    Machine.runWith(*this, Opts.MaxSteps);
  }
  if (!Machine.done() && Bundle.Completed) {
    // Budget exhaustion is survivable: the caller gets whatever was
    // measured so far, flagged as incomplete, and decides whether partial
    // profiles are usable (the driver degrades to static analysis).
    // (Cancellation above already set Completed/Error; keep its message.)
    Bundle.Completed = false;
    Bundle.Error = "profileRun: step budget exhausted after " +
                   std::to_string(Steps) + " steps";
  }

  finish();
  Bundle.Result = Machine.returnValue();
  Bundle.Output = Machine.output();
  Bundle.Instrs = Steps;
  return Bundle;
}

void ProfilerRun::allocateCounts() {
  Cur->Counts.assign(3 * Cur->F->numBlocks(), 0);
  CurCounts = Cur->Counts.data();
}

void ProfilerRun::onLoad(uint64_t Addr, StmtId TopStmt) {
  bumpStmtExec(TopStmt);
  onMemRead(Addr, TopStmt);
}

void ProfilerRun::onStore(uint64_t Addr, StmtId TopStmt) {
  bumpStmtExec(TopStmt);
  onMemWrite(Addr, TopStmt);
}

void ProfilerRun::onCall(const Instr &I) {
  bumpStmtExec(I.Id);
  switch (Funcs[I.calleeIndex()].Builtin) {
  case StatefulBuiltin::Rnd:
    onMemRead(RngAddr, I.Id);
    onMemWrite(RngAddr, I.Id);
    break;
  case StatefulBuiltin::Io:
    onMemRead(IoAddr, I.Id);
    onMemWrite(IoAddr, I.Id);
    break;
  case StatefulBuiltin::None:
    break;
  }
}

void ProfilerRun::onControl(const StepResult &R) {
  if (R.IsCallEnter) {
    pushFrame(R.I->calleeIndex(), R.I->Id);
  } else if (R.IsReturn) {
    // A call's value arrives with its return.
    if (!Watches.empty() && Shadow.size() >= 2 && !R.I->Srcs.empty()) {
      const FuncState &Caller = *Shadow[Shadow.size() - 2].FS;
      if (const int32_t Slot = watchSlot(Caller, Shadow.back().CallSite);
          Slot >= 0)
        onValueSample(Slot, R.Result.I);
    }
    popFrame();
  } else {
    enterBlock(R.NextBlock);
  }
}

bool ProfilerRun::pollCancel() {
  if (!Opts.Cancel->cancelled())
    return false;
  Bundle.Completed = false;
  Bundle.Error =
      "profileRun: cancelled after " + std::to_string(Steps) + " steps";
  return true;
}

} // namespace

ProfileBundle spt::profileRun(const Module &M, const std::string &FnName,
                              const std::vector<Value> &Args,
                              const ProfilerOptions &Opts) {
  ProfilerRun Run(M, Opts);
  return Run.run(FnName, Args);
}

//===- sim/SpecMachinery.h - Speculation state shared by SPT engines ------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The speculation scoreboard of the SPT simulator: the speculation buffer
/// and undo log (SpecAddrMap), the state a fork captures (PendingSpec), the
/// main core's post-fork undo logging (MainPostForkHooks), and the ghost's
/// structure-of-arrays violation trace (GhostArena). Private to the SPT
/// engines: sim/SptSim.cpp (the N-core chain engine) and the two-core
/// reference engine in testing/ReferenceSptSim.cpp include it, as the
/// executors include interp/DecodeEngine.h. spt.h does not include it.
///
/// Everything here has internal linkage: each engine compiles its own
/// copy, so the compiler may treat the helpers as local to the engine.
/// With vague linkage, GCC -O3 emitted the chain ghost's handler loop
/// with 0.5% more instructions (the same calls, laid out differently).
///
//===----------------------------------------------------------------------===//

#ifndef SPT_SIM_SPECMACHINERY_H
#define SPT_SIM_SPECMACHINERY_H

#include "interp/Interp.h"
#include "sim/SptSim.h"
#include "support/Compiler.h"
#include "support/Random.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace spt {
namespace {

/// Open-addressing (linear probe) address map with O(1) epoch-based
/// clearing: the speculation buffer and the undo log. Never shrinks; one
/// arena serves every speculative thread of a run.
class SpecAddrMap {
public:
  struct Slot {
    uint64_t Addr = 0;
    uint64_t Epoch = 0;
    Value V{};
    int32_t Writer = -1;
  };

  void reset() {
    ++Epoch;
    Live = 0;
  }

  const Slot *find(uint64_t Addr) const {
    if (Live == 0)
      return nullptr;
    size_t I = indexOf(Addr);
    while (true) {
      const Slot &S = Slots[I];
      if (S.Epoch != Epoch)
        return nullptr;
      if (S.Addr == Addr)
        return &S;
      if (++I == Slots.size())
        I = 0;
    }
  }

  void insertOrAssign(uint64_t Addr, Value V, int32_t Writer) {
    ensureCapacity();
    Slot &S = findSlot(Addr);
    S.V = V;
    S.Writer = Writer;
  }

  /// First write wins (undo log: the pre-fork value).
  void insertIfAbsent(uint64_t Addr, Value V) {
    ensureCapacity();
    const bool Existed = Live > 0 && find(Addr) != nullptr;
    if (Existed)
      return;
    Slot &S = findSlot(Addr);
    S.V = V;
    S.Writer = -1;
  }

private:
  static size_t mix(uint64_t X) {
    X ^= X >> 33;
    X *= 0xff51afd7ed558ccdull;
    X ^= X >> 33;
    return static_cast<size_t>(X);
  }
  size_t indexOf(uint64_t Addr) const {
    return mix(Addr) & (Slots.size() - 1);
  }

  Slot &findSlot(uint64_t Addr) {
    size_t I = indexOf(Addr);
    while (Slots[I].Epoch == Epoch && Slots[I].Addr != Addr)
      if (++I == Slots.size())
        I = 0;
    if (Slots[I].Epoch != Epoch) {
      ++Live;
      Slots[I].Epoch = Epoch;
      Slots[I].Addr = Addr;
    }
    return Slots[I];
  }

  void ensureCapacity() {
    if (Slots.empty()) {
      Slots.resize(64);
      return;
    }
    if (Live * 4 < Slots.size() * 3)
      return;
    std::vector<Slot> Old;
    Old.swap(Slots);
    Slots.resize(Old.size() * 2);
    Live = 0;
    for (const Slot &S : Old)
      if (S.Epoch == Epoch) {
        Slot &N = findSlot(S.Addr);
        N.V = S.V;
        N.Writer = S.Writer;
      }
  }

  std::vector<Slot> Slots;
  uint64_t Epoch = 1;
  size_t Live = 0;
};

/// Result of simulating one speculative thread.
struct GhostOutcome {
  bool Completed = false;
  /// Completed by speculating the loop's end (SPT_KILL). Generalized
  /// engine only: cuts the chain — no later iteration exists.
  bool CompletedByKill = false;
  bool Violated = false;
  uint64_t EndSubtick = 0;
  uint64_t Instrs = 0;
  uint64_t ReexecInstrs = 0;
  uint64_t ReexecSubticks = 0;
};

/// State captured when the main thread forks. Arena-reused across forks.
struct PendingSpec {
  int64_t LoopId = -1;
  const SptLoopDesc *Desc = nullptr;
  size_t FrameDepth = 0; ///< Main's stack depth at the fork.
  std::vector<Value> Regs;
  Random Rng;
  uint64_t ForkSubtick = 0;
  /// Registers the main thread wrote post-fork (loop-frame), as a bitset
  /// over the loop function's registers.
  std::vector<uint64_t> MainRegWriteBits;
  SpecAddrMap UndoLog;
  uint64_t MainRndCalls = 0;
  uint64_t MainIoCalls = 0;

  void resetFor(int64_t Id, const SptLoopDesc *D, size_t Depth) {
    LoopId = Id;
    Desc = D;
    FrameDepth = Depth;
    MainRegWriteBits.assign((D->F->numRegs() + 63) / 64, 0);
    UndoLog.reset();
    MainRndCalls = 0;
    MainIoCalls = 0;
  }
  bool mainWrote(Reg R) const {
    return (R >> 6) < MainRegWriteBits.size() &&
           (MainRegWriteBits[R >> 6] >> (R & 63)) & 1;
  }
  SPT_ALWAYS_INLINE void setMainWrote(Reg R) {
    if ((R >> 6) >= MainRegWriteBits.size())
      MainRegWriteBits.resize((R >> 6) + 1, 0);
    MainRegWriteBits[R >> 6] |= 1ull << (R & 63);
  }
};

/// Undo-logging hook for the main core's post-fork leg.
class MainPostForkHooks final : public Interpreter::MemHooks {
public:
  MainPostForkHooks(Interpreter &In, PendingSpec &Spec)
      : In(In), Spec(Spec) {}

  Value onLoad(uint64_t, Value Fallback) override { return Fallback; }

  bool onStore(uint64_t Addr, Value) override {
    Spec.UndoLog.insertIfAbsent(Addr, In.peekAddr(Addr)); // First write wins.
    return false;                                         // Write through.
  }

private:
  Interpreter &In;
  PendingSpec &Spec;
};

/// An append-only trace column: a vector's push_back with the growth path
/// out of line, so an append inlines into a ghost sink's handlers.
template <class T> class TraceColumn {
public:
  SPT_ALWAYS_INLINE void push_back(T V) {
    if (SPT_UNLIKELY(Size == Data.size()))
      grow();
    Data[Size++] = V;
  }
  T operator[](size_t I) const { return Data[I]; }
  size_t size() const { return Size; }
  void clear() { Size = 0; }

private:
  SPT_NOINLINE void grow() {
    Data.resize(Data.empty() ? 1024 : 2 * Data.size());
  }

  std::vector<T> Data;
  size_t Size = 0;
};

/// Structure-of-arrays ghost trace and last-writer tables, arena-reused
/// across speculative threads (epoch/run-id tagged, O(1) begin).
struct GhostArena {
  // Per-trace-entry columns.
  TraceColumn<uint8_t> Direct;     ///< Directly violated.
  TraceColumn<uint8_t> IsLoad;
  TraceColumn<int32_t> SpecWriter; ///< Spec-buffer producer entry or -1.
  TraceColumn<uint32_t> SrcBegin;  ///< Offsets into SrcWriters (+sentinel).
  TraceColumn<int32_t> SrcWriters; ///< Resolved register producers.
  std::vector<uint8_t> Reexec;     ///< Closure output.
  // Last-writer tables: per frame, per register, (run id, trace index).
  std::vector<std::vector<std::pair<uint32_t, int32_t>>> Writers;
  uint32_t RunId = 0;
  /// Registers the ghost wrote in the loop frame (frame 0), as a bitset.
  std::vector<uint64_t> GhostWrote;

  void beginRun(unsigned LoopRegs) {
    ++RunId;
    Direct.clear();
    IsLoad.clear();
    SpecWriter.clear();
    SrcBegin.clear();
    SrcWriters.clear();
    GhostWrote.assign((LoopRegs + 63) / 64, 0);
  }
  SPT_ALWAYS_INLINE int32_t writerOf(size_t Frame, Reg R) const {
    if (Frame >= Writers.size())
      return -1;
    const auto &W = Writers[Frame];
    if (R >= W.size() || W[R].first != RunId)
      return -1;
    return W[R].second;
  }
  SPT_ALWAYS_INLINE void setWriter(size_t Frame, Reg R, int32_t Idx) {
    if (Frame >= Writers.size())
      Writers.resize(Frame + 1);
    auto &W = Writers[Frame];
    if (R >= W.size())
      W.resize(R + 1, {0, -1});
    W[R] = {RunId, Idx};
  }
  SPT_ALWAYS_INLINE bool ghostWrote(Reg R) const {
    return (R >> 6) < GhostWrote.size() &&
           (GhostWrote[R >> 6] >> (R & 63)) & 1;
  }
  SPT_ALWAYS_INLINE void setGhostWrote(Reg R) {
    if ((R >> 6) >= GhostWrote.size())
      GhostWrote.resize((R >> 6) + 1, 0);
    GhostWrote[R >> 6] |= 1ull << (R & 63);
  }
};

} // namespace
} // namespace spt

#endif // SPT_SIM_SPECMACHINERY_H

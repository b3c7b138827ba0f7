//===- interp/Interp.h - Steppable IR interpreter --------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A precise, steppable interpreter for the SPT IR. One Interpreter instance
/// is one hardware context: a call stack, a register file per frame, and a
/// view of the module's array memory.
///
/// There is one engine, the decoded one (interp/Decode.h): a pre-decoded
/// flat code stream with threaded dispatch and superinstruction fusion.
/// run() drives it without building any records. The executors that retire
/// 150M+ instructions per run (the profiler, runSequential, the SPT main
/// core and chain ghosts) call runWith() with their own concrete sink,
/// which the engine inlines into every handler (interp/DecodeEngine.h).
/// The tests difference it against a single-instruction reference stepper
/// kept in src/testing (testing/ReferenceInterp.h).
///
/// Design notes:
///  - Arrays live in a flat byte-address space (8 bytes per element) so the
///    cache model and the dependence profiler share one address notion.
///  - Out-of-bounds accesses do not abort: loads yield 0, stores are
///    dropped, and the step result is flagged. The SPT simulator's ghost
///    (speculative) runs can legitimately compute wild addresses from stale
///    inputs; real TLS hardware would buffer and squash such accesses.
///  - Division by zero yields 0 for the same reason.
///  - rnd() is deterministic (support/Random.h) and part of the machine
///    state, so a context snapshot (used by speculative runs) clones it.
///  - Register files live in one flat arena (RegArena) indexed by each
///    frame's RegBase, so a call pushes a frame without allocating.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_INTERP_INTERP_H
#define SPT_INTERP_INTERP_H

#include "ir/IR.h"
#include "support/Compiler.h"
#include "support/Random.h"

#include <memory>
#include <string>
#include <vector>

namespace spt {

struct DecodedFunction;
struct DecodeEngine;

/// A dynamically typed 8-byte value. The static type is always known from
/// the consuming instruction, so no tag is stored.
struct Value {
  union {
    int64_t I;
    double F;
  };

  Value() : I(0) {}
  static Value ofInt(int64_t V) {
    Value X;
    X.I = V;
    return X;
  }
  static Value ofFp(double V) {
    Value X;
    X.F = V;
    return X;
  }
};

/// What one retired instruction did. Pointers remain valid while the module
/// lives.
struct StepResult {
  const Function *F = nullptr;
  const Instr *I = nullptr;
  BlockId Block = NoBlock;
  uint32_t Index = 0; // Instruction index within the block.

  bool IsLoad = false;
  bool IsStore = false;
  uint64_t Addr = 0;        // Flat byte address of a Load/Store.
  bool OutOfBounds = false; // Access outside the array; load got 0.

  bool IsBranch = false;
  bool BranchTaken = false; // For Br: whether Succs[0] was chosen.
  BlockId NextBlock = NoBlock; // Control-flow successor entered, if any.

  bool IsCallEnter = false; // Entered a non-external callee frame.
  bool IsReturn = false;    // Popped a frame (or finished the start call).
  bool IsFork = false;      // Executed SptFork.
  bool IsKill = false;      // Executed SptKill.

  /// The value written to I->Dst (when the instruction defines one) or the
  /// value stored by a Store.
  Value Result;

  /// True for a record with no kind flag set: an instruction that only
  /// writes a value (an external builtin call included).
  SPT_ALWAYS_INLINE bool isValueOp() const {
    return !(IsLoad || IsStore || IsBranch || IsCallEnter || IsReturn ||
             IsFork || IsKill);
  }
};

/// The builtins with hidden machine state: rnd() advances the RNG and
/// print_int/print_fp append to the output, so their calls are ordered by
/// that state. The dependence profiler and the SPT simulator model it.
enum class StatefulBuiltin : uint8_t { None, Rnd, Io };

/// Which stateful builtin \p F is; None for every other function.
StatefulBuiltin statefulBuiltinOf(const Function &F);

/// One activation record. Register values live in the interpreter's flat
/// arena at [RegBase, RegBase + F->numRegs()); use Interpreter::frameRegs.
struct Frame {
  const Function *F = nullptr;
  BlockId Block = 0;
  uint32_t Index = 0;
  Reg RetDst = NoReg;  // Caller register awaiting our return value.
  size_t RegBase = 0;  // First register slot in the interpreter's arena.
};

/// Interpreter options.
struct InterpOptions {
  uint64_t RngSeed = 0x5eed5eed5eedull;
};

/// The steppable machine. Memory (arrays) is owned by the interpreter;
/// speculative contexts share it read-mostly via the SPT simulator's
/// buffering (see sim/SptSim.h).
class Interpreter {
public:
  explicit Interpreter(const Module &M, InterpOptions Opts = InterpOptions());

  /// Creates an interpreter that *shares* \p Other's array memory (used
  /// for speculative ghost contexts, which redirect their writes through
  /// MemHooks while reading the shared image). The ghost's RNG state is
  /// cloned from \p Other at construction. The two also share one table
  /// of decoded images, so per-fork ghosts never re-decode; they must run
  /// on the same thread.
  Interpreter(const Module &M, Interpreter &Other);

  const Module &module() const { return M; }

  /// Re-zeroes all array memory and clears the call stack and output.
  void reset();

  /// Direct access to an array's storage (for input generators and tests).
  std::vector<Value> &arrayData(uint32_t Id) {
    assert(Id < Mem->size() && "array id out of range");
    return (*Mem)[Id];
  }
  const std::vector<Value> &arrayData(uint32_t Id) const {
    assert(Id < Mem->size() && "array id out of range");
    return (*Mem)[Id];
  }

  /// Reads the current value at a flat byte address (used by the SPT
  /// simulator's undo log). Returns zero for addresses outside any array.
  Value peekAddr(uint64_t Addr) const;

  /// FNV-1a hash over the entire array memory image — the architectural
  /// state a differential oracle compares bit-for-bit across simulators.
  uint64_t memoryHash() const;

  /// Begins executing \p F with \p Args. Any previous call stack must have
  /// finished (done() == true).
  void startCall(const Function *F, const std::vector<Value> &Args);

  /// Begins executing mid-function: one frame for \p F positioned at
  /// (\p Block, \p Index) with the given register file. Used to launch
  /// speculative ghost contexts at a loop's iteration entry.
  void startAt(const Function *F, BlockId Block, uint32_t Index,
               const std::vector<Value> &Regs);

  /// True when the call stack is empty (the start call returned).
  bool done() const { return Stack.empty(); }

  /// Runs until done() or \p MaxSteps executed; returns steps executed.
  /// No StepResult records are built at all — this is the fastest way
  /// through a program. A run stopped by its budget can be resumed by the
  /// next run() or runWith() call.
  uint64_t run(uint64_t MaxSteps = ~0ull);

  /// Runs like run() but delivers every StepResult to \p S, any class with
  /// `bool onStep(const StepResult &)`: one record per retired instruction,
  /// in program order, each right after its instruction retires, so a sink
  /// may inspect interpreter state. Stops when the sink returns false
  /// (after that record), done(), or \p MaxSteps; returns the number of
  /// instructions executed. The engine is instantiated for \p Sink, whose
  /// handler is inlined into every opcode handler. Defined in
  /// interp/DecodeEngine.h, which the caller includes.
  template <class Sink> uint64_t runWith(Sink &S, uint64_t MaxSteps = ~0ull);

  /// The value returned by the finished start call.
  Value returnValue() const { return RetValue; }

  /// Total instructions executed since construction/reset. Incremented
  /// *before* each instruction executes, so during execution (e.g. inside
  /// a MemHooks callback) instrCount()-1 is the index of the current
  /// instruction in the dynamic trace.
  uint64_t instrCount() const { return InstrsExecuted; }

  /// Text emitted by print_int/print_fp since reset.
  const std::string &output() const { return Output; }

  /// The current innermost frame (for inspection by drivers).
  const Frame &topFrame() const {
    assert(!Stack.empty() && "no active frame");
    return Stack.back();
  }

  size_t stackDepth() const { return Stack.size(); }

  /// Frame at \p Depth (0 = outermost start call).
  const Frame &frame(size_t Depth) const {
    assert(Depth < Stack.size() && "frame depth out of range");
    return Stack[Depth];
  }

  /// Register file of \p Fr (contiguous, F->numRegs() entries).
  const Value *frameRegs(const Frame &Fr) const {
    return RegArena.data() + Fr.RegBase;
  }

  /// Copies the top frame's registers into \p Out, reusing its capacity
  /// (the SPT simulator snapshots registers at every fork).
  void copyTopRegs(std::vector<Value> &Out) const {
    const Frame &Fr = topFrame();
    const Value *R = RegArena.data() + Fr.RegBase;
    Out.assign(R, R + Fr.F->numRegs());
  }

  /// The machine's deterministic RNG (rnd() builtin state).
  Random &rng() { return Rng; }

  /// Memory-read/write hooks used by the SPT simulator to redirect
  /// speculative accesses into a buffer. When set, they fully replace the
  /// default array access. Plain profiling leaves them unset.
  struct MemHooks {
    virtual ~MemHooks();
    /// Returns the loaded value for \p Addr; \p Fallback is the value in
    /// main memory.
    virtual Value onLoad(uint64_t Addr, Value Fallback) = 0;
    /// Returns true when the store was consumed (buffered); false writes
    /// through to main memory.
    virtual bool onStore(uint64_t Addr, Value V) = 0;
  };
  void setMemHooks(MemHooks *Hooks) { Hooks_ = Hooks; }

private:
  friend struct DecodeEngine;
  /// The single-instruction reference the tests difference the engine
  /// against (testing/ReferenceInterp.h; not in this library).
  friend StepResult referenceStep(Interpreter &In);

  /// The builtins the frontend knows. Decode resolves external callees to
  /// a kind once; the reference stepper resolves by name per call.
  enum class BuiltinKind : uint8_t {
    Sqrt,
    Log,
    Exp,
    Rnd,
    PrintInt,
    PrintFp,
    Unknown, ///< Faults when executed (not at decode time).
  };
  static BuiltinKind builtinKindOf(const Function &Callee);
  Value evalBuiltinKind(BuiltinKind K, const Value *Args);
  void appendOutput(const char *Buf, size_t Len);

  /// Pushes a frame for \p Callee, zeroing its arena slice and copying
  /// \p NArgs argument values from \p Args. Invalidates RegArena pointers.
  void pushFrame(const Function *Callee, Reg RetDst, const Value *Args,
                 size_t NArgs);

  /// The decoded image of module function index \p Idx, decoded on first
  /// use (defined in interp/Decode.cpp).
  const DecodedFunction *imageByIndex(uint32_t Idx);
  const DecodedFunction *imageOf(const Function *F);

  const Module &M;
  std::vector<std::vector<Value>> OwnMemory;
  /// Points at OwnMemory, or at another interpreter's memory image.
  std::vector<std::vector<Value>> *Mem;
  std::vector<uint64_t> ArrayBase;
  std::vector<Frame> Stack;
  /// Flat register-file arena; frame Fr owns [RegBase, RegBase+numRegs).
  std::vector<Value> RegArena;
  size_t ArenaTop = 0;
  Value RetValue;
  uint64_t InstrsExecuted = 0;
  std::string Output;
  Random Rng;
  InterpOptions Opts;
  MemHooks *Hooks_ = nullptr;
  /// Reused argument buffer for Call instructions.
  std::vector<Value> ArgScratch;
  /// Decoded images by module function index, kept for the interpreter's
  /// lifetime and shared with the ghosts built from it.
  using ImageTable = std::vector<std::unique_ptr<const DecodedFunction>>;
  std::shared_ptr<ImageTable> Images;
};

/// Convenience: interprets \p FnName(\p Args) in a fresh interpreter and
/// returns (return value, printed output).
struct RunOutcome {
  Value Result;
  std::string Output;
  uint64_t Instrs = 0;
};
RunOutcome runFunction(const Module &M, const std::string &FnName,
                       const std::vector<Value> &Args = {},
                       uint64_t MaxSteps = 500000000ull);

} // namespace spt

#endif // SPT_INTERP_INTERP_H

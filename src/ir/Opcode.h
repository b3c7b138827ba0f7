//===- ir/Opcode.h - Instruction opcodes and classification ---------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The opcode set of the SPT IR, together with classification predicates
/// used by analyses (terminators, memory operations, side effects) and by
/// the cost model / simulator (operation weight classes). The IR plays the
/// role of ORC's WHIRL/SSA representation in the paper: the cost-graph nodes
/// are operations (paper: Codereps), statements are single instructions.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_IR_OPCODE_H
#define SPT_IR_OPCODE_H

#include <cstddef>
#include <cstdint>

namespace spt {

/// Every operation the SPT IR can express.
enum class Opcode : uint8_t {
  // Integer arithmetic (64-bit two's complement).
  Add,
  Sub,
  Mul,
  Div, // Traps-free: divide by zero yields 0 (checked by the interpreter).
  Rem, // Remainder; by-zero yields 0.
  Neg,
  And,
  Or,
  Xor,
  Shl,
  Shr, // Arithmetic shift right.
  Not,
  Min,
  Max,
  Abs,

  // Floating point (IEEE double).
  FAdd,
  FSub,
  FMul,
  FDiv,
  FNeg,
  FAbs,
  FMin,
  FMax,

  // Conversions.
  IntToFp,
  FpToInt,

  // Comparisons; result is an integer 0/1.
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  FCmpEq,
  FCmpNe,
  FCmpLt,
  FCmpLe,
  FCmpGt,
  FCmpGe,

  // Data movement.
  Copy,     // Dst = Src0.
  ConstInt, // Dst = IntImm.
  ConstFp,  // Dst = FpImm.
  Select,   // Dst = Src0 ? Src1 : Src2.

  // Memory. Arrays are module-level; IntImm holds the array id.
  Load,  // Dst = Array[Src0].
  Store, // Array[Src0] = Src1.

  // Calls. IntImm holds the callee function index; Srcs are arguments.
  Call,

  // Control flow. Branch targets live in the block successor list.
  Br,  // Conditional: Src0 != 0 -> Succs[0], else Succs[1].
  Jmp, // Unconditional: -> Succs[0].
  Ret, // Optional Src0 is the return value.

  // Speculative-parallel-threading markers inserted by the SPT
  // transformation (paper Figure 2). IntImm holds the loop id.
  SptFork,
  SptKill, // Keep last: NumOpcodes counts up to here.
};

/// Number of opcodes, for tables indexed by the raw Opcode value.
inline constexpr size_t NumOpcodes = static_cast<size_t>(Opcode::SptKill) + 1;

/// Coarse operation classes used for latency/weight lookup.
enum class OpClass : uint8_t {
  IntAlu,
  IntMul,
  IntDiv,
  FpAlu,
  FpMul,
  FpDiv,
  MemLoad,
  MemStore,
  Branch,
  Call,
  Marker, // SptFork/SptKill; cost charged separately by the simulator.
};

/// Returns a stable human-readable mnemonic for \p Op.
const char *opcodeName(Opcode Op);

/// Returns the weight/latency class of \p Op.
OpClass opcodeClass(Opcode Op);

/// Returns true for Br/Jmp/Ret, the only ops allowed to end a block.
bool isTerminator(Opcode Op);

/// Returns true if the op reads or writes memory (Load/Store/Call).
bool touchesMemory(Opcode Op);

/// Returns true if the op has effects beyond writing its Dst register:
/// stores, calls, control flow and SPT markers.
bool hasSideEffects(Opcode Op);

/// Returns the number of register operands \p Op expects, or -1 when the
/// count is variable (Call) or optional (Ret).
int expectedNumSrcs(Opcode Op);

/// Returns true if the op produces a result register.
bool producesValue(Opcode Op);

/// Returns true if the opcode is a comparison producing 0/1.
bool isComparison(Opcode Op);

} // namespace spt

#endif // SPT_IR_OPCODE_H

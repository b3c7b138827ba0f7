//===- interp/Decode.h - Pre-decoded flat code stream ----------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decode pass behind the interpreter's fast engine. A DecodedFunction
/// flattens a Function's blocks into one contiguous array of fixed-size
/// DecOps: operands pre-extracted from ir::Instr's vectors, branch targets
/// pre-resolved to code offsets, array base addresses pre-computed, and
/// external callees pre-bound to their builtin. Code offsets are position-
/// isomorphic with the IR — the op for (Block B, Index I) sits at
/// BlockStart[B] + I — so any IR position (a mid-function startAt, a
/// call-resume point) maps to the stream with one add, and every record the
/// engine emits can name its IR block/index without bookkeeping.
///
/// Superinstruction fusion: the decode pass rewrites the hot adjacent pairs
/// the frontend emits constantly — compare feeding the block's conditional
/// branch, constant feeding an add, mul feeding an add, and add feeding a
/// load/store index — into single fused DecOps. A fused op executes its two
/// IR instructions strictly sequentially and emits both StepResult records
/// at the exact points a single-instruction stepper would, so fusion is
/// invisible to every observer. The second instruction's slot keeps its
/// plain decoding (normal flow skips it; mid-stream entry at that position,
/// or a run that stopped between the halves, resumes there), and fusion
/// never crosses a Call/Ret/fork boundary.
///
/// Lifetime: an Interpreter decodes a function the first time it enters
/// it and keeps the image as long as it lives, so it never sees a later
/// in-place rewrite of that function, and an interpreter started after a
/// rewrite decodes the rewritten body. A ghost context built from an
/// interpreter shares its image table (interp/Interp.h); the two run on
/// one thread, so the table needs no lock.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_INTERP_DECODE_H
#define SPT_INTERP_DECODE_H

#include "ir/IR.h"

#include <vector>

namespace spt {

/// Decoded opcodes: the IR opcodes one-to-one, the pre-bound external call,
/// and the superinstructions. Kept dense and stable — the threaded engine
/// indexes its label table with the raw value.
enum class DOp : uint8_t {
  // Plain ops (operand regs in A/B/C, see Decode.cpp::decodePlain).
  Add, Sub, Mul, Div, Rem, Neg, And, Or, Xor, Shl, Shr, Not, Min, Max, Abs,
  FAdd, FSub, FMul, FDiv, FNeg, FAbs, FMin, FMax,
  IntToFp, FpToInt,
  CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
  FCmpEq, FCmpNe, FCmpLt, FCmpLe, FCmpGt, FCmpGe,
  Copy, ConstInt, ConstFp, Select,
  Load, Store,
  Call,    ///< Non-external call, callee pre-resolved.
  CallExt, ///< External call, builtin kind pre-resolved.
  Br, Jmp, Ret, SptFork, SptKill,
  // Superinstructions (two IR instructions, two records).
  CmpEqBr, CmpNeBr, CmpLtBr, CmpLeBr, CmpGtBr, CmpGeBr,
  ConstAdd, ///< ConstInt t, imm ; Add d, {t, s} (int add is commutative).
  MulAdd,   ///< Mul t, a, b ; Add d, {t, c}.
  AddLoad,  ///< Add t, a, b ; Load d, Arr[t].
  AddStore, ///< Add t, a, b ; Store Arr[t], v.
  kCount,
};

/// One fixed-size decoded operation. Field meaning depends on DOp; the
/// invariant layout is: A/B/C hold register numbers or small ids, T0/T1
/// hold pre-resolved code offsets (branches) or auxiliary regs/ids, the
/// immediate union holds the constant / pre-computed array base, P the
/// pre-resolved callee, and I0/I1 the originating IR instruction(s) for
/// record emission (I1 only for fused ops).
struct DecOp {
  DOp Op = DOp::kCount;
  uint8_t NSrcs = 0;  ///< Ret: source count (0 or 1).
  uint16_t Pad = 0;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t C = 0;
  uint32_t T0 = 0;
  uint32_t T1 = 0;
  union {
    int64_t Imm;
    uint64_t UImm;
    double FImm;
  };
  const void *P = nullptr;
  const Instr *I0 = nullptr;
  const Instr *I1 = nullptr;
  BlockId Block = NoBlock; ///< IR block of I0.
  uint32_t Index = 0;      ///< IR index of I0 within Block.

  DecOp() : Imm(0) {}
};

/// The decoded image of one Function, as its body was when decoded.
struct DecodedFunction {
  const Function *F = nullptr;
  std::vector<DecOp> Code;
  /// BlockId -> code offset of the block's first op. Code offsets are
  /// position-isomorphic: op for (B, I) lives at BlockStart[B] + I.
  std::vector<uint32_t> BlockStart;
  /// Argument registers of Call ops (DecOp::B is the pool offset).
  std::vector<Reg> SrcPool;
  uint32_t NumFused = 0; ///< Fused pairs in this image (for stats/tests).

  uint32_t offsetOf(BlockId B, uint32_t Index) const {
    return BlockStart[B] + Index;
  }
};

/// The deterministic flat-address layout of a module's arrays — the same
/// bases the Interpreter constructor assigns, shared so decode can bake
/// them into Load/Store ops.
std::vector<uint64_t> arrayBaseLayout(const Module &M);

/// Decodes \p F, a function of \p M, with its Load/Store ops addressing
/// the arrays at \p ArrayBase (arrayBaseLayout(M)). The image points into
/// F's instructions, so it is valid until F is next rewritten.
DecodedFunction decodeFunction(const Module &M, const Function &F,
                               const std::vector<uint64_t> &ArrayBase);

} // namespace spt

#endif // SPT_INTERP_DECODE_H

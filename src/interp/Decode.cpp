//===- interp/Decode.cpp - Decode pass and engine entry points ---------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
// Two things live here:
//
//  1. The decode pass: Function -> DecodedFunction (flattening, operand
//     pre-extraction, branch-target resolution, superinstruction fusion),
//     and the interpreter's per-function image table.
//
//  2. Interpreter::run(), the instantiation of the decoded engine
//     (interp/DecodeEngine.h) for callers without a sink of their own; it
//     builds no records at all.
//
//===----------------------------------------------------------------------===//

#include "interp/Decode.h"

#include "interp/DecodeEngine.h"
#include "interp/Interp.h"
#include "support/Debug.h"

#include <memory>

using namespace spt;

//===----------------------------------------------------------------------===//
// Decode pass.
//===----------------------------------------------------------------------===//

namespace {

/// Destination register with the NoReg -> scratch-slot mapping applied
/// (frames allocate numRegs()+1 arena slots; see Interpreter::pushFrame).
uint32_t mapDst(const Function &F, Reg Dst) {
  return Dst == NoReg ? F.numRegs() : Dst;
}

DOp plainDOpFor(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return DOp::Add;
  case Opcode::Sub:
    return DOp::Sub;
  case Opcode::Mul:
    return DOp::Mul;
  case Opcode::Div:
    return DOp::Div;
  case Opcode::Rem:
    return DOp::Rem;
  case Opcode::Neg:
    return DOp::Neg;
  case Opcode::And:
    return DOp::And;
  case Opcode::Or:
    return DOp::Or;
  case Opcode::Xor:
    return DOp::Xor;
  case Opcode::Shl:
    return DOp::Shl;
  case Opcode::Shr:
    return DOp::Shr;
  case Opcode::Not:
    return DOp::Not;
  case Opcode::Min:
    return DOp::Min;
  case Opcode::Max:
    return DOp::Max;
  case Opcode::Abs:
    return DOp::Abs;
  case Opcode::FAdd:
    return DOp::FAdd;
  case Opcode::FSub:
    return DOp::FSub;
  case Opcode::FMul:
    return DOp::FMul;
  case Opcode::FDiv:
    return DOp::FDiv;
  case Opcode::FNeg:
    return DOp::FNeg;
  case Opcode::FAbs:
    return DOp::FAbs;
  case Opcode::FMin:
    return DOp::FMin;
  case Opcode::FMax:
    return DOp::FMax;
  case Opcode::IntToFp:
    return DOp::IntToFp;
  case Opcode::FpToInt:
    return DOp::FpToInt;
  case Opcode::CmpEq:
    return DOp::CmpEq;
  case Opcode::CmpNe:
    return DOp::CmpNe;
  case Opcode::CmpLt:
    return DOp::CmpLt;
  case Opcode::CmpLe:
    return DOp::CmpLe;
  case Opcode::CmpGt:
    return DOp::CmpGt;
  case Opcode::CmpGe:
    return DOp::CmpGe;
  case Opcode::FCmpEq:
    return DOp::FCmpEq;
  case Opcode::FCmpNe:
    return DOp::FCmpNe;
  case Opcode::FCmpLt:
    return DOp::FCmpLt;
  case Opcode::FCmpLe:
    return DOp::FCmpLe;
  case Opcode::FCmpGt:
    return DOp::FCmpGt;
  case Opcode::FCmpGe:
    return DOp::FCmpGe;
  case Opcode::Copy:
    return DOp::Copy;
  case Opcode::ConstInt:
    return DOp::ConstInt;
  case Opcode::ConstFp:
    return DOp::ConstFp;
  case Opcode::Select:
    return DOp::Select;
  case Opcode::Load:
    return DOp::Load;
  case Opcode::Store:
    return DOp::Store;
  case Opcode::Call:
    return DOp::Call;
  case Opcode::Br:
    return DOp::Br;
  case Opcode::Jmp:
    return DOp::Jmp;
  case Opcode::Ret:
    return DOp::Ret;
  case Opcode::SptFork:
    return DOp::SptFork;
  case Opcode::SptKill:
    return DOp::SptKill;
  }
  spt_fatal("unknown opcode in decode");
}

void decodePlain(const Module &M, const Function &F, const BasicBlock &BB,
                 BlockId B, uint32_t Idx, const std::vector<uint64_t> &Bases,
                 DecodedFunction &DF, DecOp &O) {
  const Instr &I = BB.Instrs[Idx];
  O.Op = plainDOpFor(I.Op);
  O.I0 = &I;
  O.I1 = nullptr;
  O.Block = B;
  O.Index = Idx;
  switch (O.Op) {
  // Binary register ops: A = dst, B/C = sources.
  case DOp::Add:
  case DOp::Sub:
  case DOp::Mul:
  case DOp::Div:
  case DOp::Rem:
  case DOp::And:
  case DOp::Or:
  case DOp::Xor:
  case DOp::Shl:
  case DOp::Shr:
  case DOp::Min:
  case DOp::Max:
  case DOp::FAdd:
  case DOp::FSub:
  case DOp::FMul:
  case DOp::FDiv:
  case DOp::FMin:
  case DOp::FMax:
  case DOp::CmpEq:
  case DOp::CmpNe:
  case DOp::CmpLt:
  case DOp::CmpLe:
  case DOp::CmpGt:
  case DOp::CmpGe:
  case DOp::FCmpEq:
  case DOp::FCmpNe:
  case DOp::FCmpLt:
  case DOp::FCmpLe:
  case DOp::FCmpGt:
  case DOp::FCmpGe:
    O.A = mapDst(F, I.Dst);
    O.B = I.Srcs[0];
    O.C = I.Srcs[1];
    break;
  // Unary register ops: A = dst, B = source.
  case DOp::Neg:
  case DOp::Not:
  case DOp::Abs:
  case DOp::FNeg:
  case DOp::FAbs:
  case DOp::IntToFp:
  case DOp::FpToInt:
  case DOp::Copy:
    O.A = mapDst(F, I.Dst);
    O.B = I.Srcs[0];
    break;
  case DOp::ConstInt:
    O.A = mapDst(F, I.Dst);
    O.Imm = I.IntImm;
    break;
  case DOp::ConstFp:
    O.A = mapDst(F, I.Dst);
    O.FImm = I.FpImm;
    break;
  case DOp::Select:
    O.A = mapDst(F, I.Dst);
    O.B = I.Srcs[0];
    O.C = I.Srcs[1];
    O.T0 = I.Srcs[2];
    break;
  case DOp::Load:
    O.A = mapDst(F, I.Dst);
    O.B = I.Srcs[0];
    O.C = I.arrayId();
    O.UImm = Bases[I.arrayId()];
    break;
  case DOp::Store:
    O.A = I.arrayId();
    O.B = I.Srcs[0];
    O.C = I.Srcs[1];
    O.UImm = Bases[I.arrayId()];
    break;
  case DOp::Call: {
    const Function *Callee = M.function(I.calleeIndex());
    O.B = static_cast<uint32_t>(DF.SrcPool.size());
    O.T0 = static_cast<uint32_t>(I.Srcs.size());
    for (Reg R : I.Srcs)
      DF.SrcPool.push_back(R);
    O.P = Callee;
    if (Callee->isExternal()) {
      O.Op = DOp::CallExt;
      O.A = mapDst(F, I.Dst);
      O.C = DecodeEngine::builtinKindRaw(*Callee);
    } else {
      O.A = I.Dst; // Raw: the callee's RetDst, NoReg means "discard".
      O.C = I.calleeIndex();
    }
    break;
  }
  case DOp::Br:
    O.B = I.Srcs[0];
    O.T0 = DF.BlockStart[BB.Succs[0]];
    O.T1 = DF.BlockStart[BB.Succs[1]];
    O.UImm = uint64_t(BB.Succs[0]) | (uint64_t(BB.Succs[1]) << 32);
    break;
  case DOp::Jmp:
    O.T0 = DF.BlockStart[BB.Succs[0]];
    O.UImm = BB.Succs[0];
    break;
  case DOp::Ret:
    O.NSrcs = static_cast<uint8_t>(I.Srcs.size());
    O.B = I.Srcs.empty() ? 0 : I.Srcs[0];
    break;
  case DOp::SptFork:
  case DOp::SptKill:
    break;
  default:
    spt_fatal("decodePlain: unexpected op");
  }
}

/// Greedy left-to-right superinstruction rewrite of one block. The second
/// instruction of a fused pair keeps its plain slot (normal flow skips it
/// with PC += 2; mid-stream entry at its position still works).
void fuseBlock(const Function &F, const BasicBlock &BB, uint32_t Start,
               DecodedFunction &DF) {
  const size_t N = BB.Instrs.size();
  size_t Idx = 0;
  while (Idx + 1 < N) {
    const Instr &I = BB.Instrs[Idx];
    const Instr &J = BB.Instrs[Idx + 1];
    DecOp &O = DF.Code[Start + Idx];
    const DecOp &O2 = DF.Code[Start + Idx + 1];
    DOp Fused = DOp::kCount;

    if (J.Op == Opcode::Br && I.Dst != NoReg && J.Srcs[0] == I.Dst) {
      // Integer compare feeding the block's conditional branch.
      switch (I.Op) {
      case Opcode::CmpEq:
        Fused = DOp::CmpEqBr;
        break;
      case Opcode::CmpNe:
        Fused = DOp::CmpNeBr;
        break;
      case Opcode::CmpLt:
        Fused = DOp::CmpLtBr;
        break;
      case Opcode::CmpLe:
        Fused = DOp::CmpLeBr;
        break;
      case Opcode::CmpGt:
        Fused = DOp::CmpGtBr;
        break;
      case Opcode::CmpGe:
        Fused = DOp::CmpGeBr;
        break;
      default:
        break;
      }
      if (Fused != DOp::kCount) {
        O.Op = Fused;
        O.A = I.Dst;
        O.B = I.Srcs[0];
        O.C = I.Srcs[1];
        O.T0 = O2.T0;
        O.T1 = O2.T1;
        O.UImm = O2.UImm;
      }
    } else if (I.Op == Opcode::ConstInt && J.Op == Opcode::Add &&
               I.Dst != NoReg &&
               (J.Srcs[0] == I.Dst || J.Srcs[1] == I.Dst)) {
      // Add-immediate: the constant is still written (int add commutes, so
      // the surviving operand order is irrelevant).
      Fused = DOp::ConstAdd;
      O.Op = Fused;
      O.A = mapDst(F, J.Dst);
      O.B = J.Srcs[0] == I.Dst ? J.Srcs[1] : J.Srcs[0];
      O.C = I.Dst;
      O.Imm = I.IntImm;
    } else if (I.Op == Opcode::Mul && J.Op == Opcode::Add && I.Dst != NoReg &&
               (J.Srcs[0] == I.Dst || J.Srcs[1] == I.Dst)) {
      Fused = DOp::MulAdd;
      O.Op = Fused;
      O.A = mapDst(F, J.Dst);
      O.B = I.Srcs[0];
      O.C = I.Srcs[1];
      O.T0 = I.Dst;
      O.T1 = J.Srcs[0] == I.Dst ? J.Srcs[1] : J.Srcs[0];
    } else if (I.Op == Opcode::Add && J.Op == Opcode::Load && I.Dst != NoReg &&
               J.Srcs[0] == I.Dst) {
      // Index arithmetic feeding the access address.
      Fused = DOp::AddLoad;
      O.Op = Fused;
      O.A = mapDst(F, J.Dst);
      O.B = I.Srcs[0];
      O.C = I.Srcs[1];
      O.T0 = I.Dst;
      O.T1 = J.arrayId();
      O.UImm = O2.UImm;
    } else if (I.Op == Opcode::Add && J.Op == Opcode::Store &&
               I.Dst != NoReg && J.Srcs[0] == I.Dst) {
      Fused = DOp::AddStore;
      O.Op = Fused;
      O.A = J.Srcs[1]; // Value register, read after the add retires.
      O.B = I.Srcs[0];
      O.C = I.Srcs[1];
      O.T0 = I.Dst;
      O.T1 = J.arrayId();
      O.UImm = O2.UImm;
    }

    if (Fused != DOp::kCount) {
      O.I1 = &J;
      ++DF.NumFused;
      Idx += 2;
    } else {
      ++Idx;
    }
  }
}

} // namespace

DecodedFunction spt::decodeFunction(const Module &M, const Function &F,
                                    const std::vector<uint64_t> &ArrayBase) {
  DecodedFunction DF;
  DF.F = &F;
  DF.BlockStart.resize(F.numBlocks());
  uint32_t Total = 0;
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    DF.BlockStart[B] = Total;
    Total += static_cast<uint32_t>(F.block(B)->Instrs.size());
  }
  DF.Code.resize(Total);
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    const BasicBlock *BB = F.block(B);
    for (uint32_t Idx = 0; Idx != BB->Instrs.size(); ++Idx)
      decodePlain(M, F, *BB, B, Idx, ArrayBase, DF,
                  DF.Code[DF.BlockStart[B] + Idx]);
  }
  for (BlockId B = 0; B != F.numBlocks(); ++B)
    fuseBlock(F, *F.block(B), DF.BlockStart[B], DF);
  return DF;
}

//===----------------------------------------------------------------------===//
// The interpreter's image table.
//===----------------------------------------------------------------------===//

const DecodedFunction *Interpreter::imageByIndex(uint32_t Idx) {
  ImageTable &Table = *Images;
  if (Table.size() <= Idx)
    Table.resize(std::max<size_t>(M.numFunctions(), Idx + 1));
  std::unique_ptr<const DecodedFunction> &Slot = Table[Idx];
  if (!Slot)
    Slot = std::make_unique<const DecodedFunction>(
        decodeFunction(M, *M.function(Idx), ArrayBase));
  return Slot.get();
}

const DecodedFunction *Interpreter::imageOf(const Function *F) {
  return imageByIndex(M.indexOf(F));
}

//===----------------------------------------------------------------------===//
// Engine entry point (the engine itself is interp/DecodeEngine.h).
//===----------------------------------------------------------------------===//

namespace {

/// run(): no records at all — the pure-throughput path.
struct NullSink {
  static constexpr bool NeedsRecords = false;
  bool onStep(const StepResult &) { return true; }
};

} // namespace

uint64_t Interpreter::run(uint64_t MaxSteps) {
  NullSink S;
  return runWith(S, MaxSteps);
}

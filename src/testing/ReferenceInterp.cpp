//===- testing/ReferenceInterp.cpp - Single-instruction reference stepper -===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The tree-walking switch over ir::Instr, kept as the decoded engine's test
// oracle. It reads every operand from the IR at every step and resolves
// external callees by name per call, so it shares no decoding with the
// engine it checks.
//
//===----------------------------------------------------------------------===//

#include "testing/ReferenceInterp.h"

#include "support/WrapMath.h"

#include <cassert>
#include <cmath>

using namespace spt;

StepResult spt::referenceStep(Interpreter &In) {
  assert(!In.Stack.empty() && "referenceStep on a finished machine");
  Frame &Fr = In.Stack.back();
  const BasicBlock *BB = Fr.F->block(Fr.Block);
  assert(Fr.Index < BB->Instrs.size() && "frame position out of range");
  const Instr &I = BB->Instrs[Fr.Index];
  Value *Regs = In.RegArena.data() + Fr.RegBase;

  StepResult R;
  R.F = Fr.F;
  R.I = &I;
  R.Block = Fr.Block;
  R.Index = Fr.Index;
  ++In.InstrsExecuted;

  auto RegV = [&](size_t SrcIdx) -> Value & { return Regs[I.Srcs[SrcIdx]]; };
  auto setDst = [&](Value V) {
    if (I.Dst != NoReg)
      Regs[I.Dst] = V;
    R.Result = V;
  };
  auto advance = [&]() { ++Fr.Index; };

  switch (I.Op) {
  case Opcode::Add:
    setDst(Value::ofInt(wrapAdd(RegV(0).I, RegV(1).I)));
    advance();
    break;
  case Opcode::Sub:
    setDst(Value::ofInt(wrapSub(RegV(0).I, RegV(1).I)));
    advance();
    break;
  case Opcode::Mul:
    setDst(Value::ofInt(wrapMul(RegV(0).I, RegV(1).I)));
    advance();
    break;
  case Opcode::Div:
    setDst(Value::ofInt(wrapDiv(RegV(0).I, RegV(1).I)));
    advance();
    break;
  case Opcode::Rem:
    setDst(Value::ofInt(wrapRem(RegV(0).I, RegV(1).I)));
    advance();
    break;
  case Opcode::Neg:
    setDst(Value::ofInt(wrapNeg(RegV(0).I)));
    advance();
    break;
  case Opcode::And:
    setDst(Value::ofInt(RegV(0).I & RegV(1).I));
    advance();
    break;
  case Opcode::Or:
    setDst(Value::ofInt(RegV(0).I | RegV(1).I));
    advance();
    break;
  case Opcode::Xor:
    setDst(Value::ofInt(RegV(0).I ^ RegV(1).I));
    advance();
    break;
  case Opcode::Shl:
    setDst(Value::ofInt(wrapShl(RegV(0).I, RegV(1).I)));
    advance();
    break;
  case Opcode::Shr:
    setDst(Value::ofInt(RegV(0).I >> (RegV(1).I & 63)));
    advance();
    break;
  case Opcode::Not:
    setDst(Value::ofInt(~RegV(0).I));
    advance();
    break;
  case Opcode::Min:
    setDst(Value::ofInt(RegV(0).I < RegV(1).I ? RegV(0).I : RegV(1).I));
    advance();
    break;
  case Opcode::Max:
    setDst(Value::ofInt(RegV(0).I > RegV(1).I ? RegV(0).I : RegV(1).I));
    advance();
    break;
  case Opcode::Abs:
    setDst(Value::ofInt(wrapAbs(RegV(0).I)));
    advance();
    break;

  case Opcode::FAdd:
    setDst(Value::ofFp(RegV(0).F + RegV(1).F));
    advance();
    break;
  case Opcode::FSub:
    setDst(Value::ofFp(RegV(0).F - RegV(1).F));
    advance();
    break;
  case Opcode::FMul:
    setDst(Value::ofFp(RegV(0).F * RegV(1).F));
    advance();
    break;
  case Opcode::FDiv: {
    const double D = RegV(1).F;
    setDst(Value::ofFp(D == 0.0 ? 0.0 : RegV(0).F / D));
    advance();
    break;
  }
  case Opcode::FNeg:
    setDst(Value::ofFp(-RegV(0).F));
    advance();
    break;
  case Opcode::FAbs:
    setDst(Value::ofFp(std::fabs(RegV(0).F)));
    advance();
    break;
  case Opcode::FMin:
    setDst(Value::ofFp(RegV(0).F < RegV(1).F ? RegV(0).F : RegV(1).F));
    advance();
    break;
  case Opcode::FMax:
    setDst(Value::ofFp(RegV(0).F > RegV(1).F ? RegV(0).F : RegV(1).F));
    advance();
    break;

  case Opcode::IntToFp:
    setDst(Value::ofFp(static_cast<double>(RegV(0).I)));
    advance();
    break;
  case Opcode::FpToInt:
    setDst(Value::ofInt(static_cast<int64_t>(RegV(0).F)));
    advance();
    break;

  case Opcode::CmpEq:
    setDst(Value::ofInt(RegV(0).I == RegV(1).I));
    advance();
    break;
  case Opcode::CmpNe:
    setDst(Value::ofInt(RegV(0).I != RegV(1).I));
    advance();
    break;
  case Opcode::CmpLt:
    setDst(Value::ofInt(RegV(0).I < RegV(1).I));
    advance();
    break;
  case Opcode::CmpLe:
    setDst(Value::ofInt(RegV(0).I <= RegV(1).I));
    advance();
    break;
  case Opcode::CmpGt:
    setDst(Value::ofInt(RegV(0).I > RegV(1).I));
    advance();
    break;
  case Opcode::CmpGe:
    setDst(Value::ofInt(RegV(0).I >= RegV(1).I));
    advance();
    break;
  case Opcode::FCmpEq:
    setDst(Value::ofInt(RegV(0).F == RegV(1).F));
    advance();
    break;
  case Opcode::FCmpNe:
    setDst(Value::ofInt(RegV(0).F != RegV(1).F));
    advance();
    break;
  case Opcode::FCmpLt:
    setDst(Value::ofInt(RegV(0).F < RegV(1).F));
    advance();
    break;
  case Opcode::FCmpLe:
    setDst(Value::ofInt(RegV(0).F <= RegV(1).F));
    advance();
    break;
  case Opcode::FCmpGt:
    setDst(Value::ofInt(RegV(0).F > RegV(1).F));
    advance();
    break;
  case Opcode::FCmpGe:
    setDst(Value::ofInt(RegV(0).F >= RegV(1).F));
    advance();
    break;

  case Opcode::Copy:
    setDst(RegV(0));
    advance();
    break;
  case Opcode::ConstInt:
    setDst(Value::ofInt(I.IntImm));
    advance();
    break;
  case Opcode::ConstFp:
    setDst(Value::ofFp(I.FpImm));
    advance();
    break;
  case Opcode::Select:
    setDst(RegV(0).I != 0 ? RegV(1) : RegV(2));
    advance();
    break;

  case Opcode::Load: {
    const uint32_t Id = I.arrayId();
    const int64_t Index = RegV(0).I;
    R.IsLoad = true;
    Value Loaded;
    if (Index < 0 ||
        static_cast<uint64_t>(Index) >= (*In.Mem)[Id].size()) {
      R.OutOfBounds = true;
      R.Addr = In.ArrayBase[Id]; // Clamped address for the cache model.
      Loaded = Value();
    } else {
      R.Addr = In.ArrayBase[Id] + static_cast<uint64_t>(Index) * 8;
      Loaded = (*In.Mem)[Id][static_cast<size_t>(Index)];
    }
    if (In.Hooks_)
      Loaded = In.Hooks_->onLoad(R.Addr, Loaded);
    setDst(Loaded);
    advance();
    break;
  }
  case Opcode::Store: {
    const uint32_t Id = I.arrayId();
    const int64_t Index = RegV(0).I;
    const Value V = RegV(1);
    R.IsStore = true;
    R.Result = V;
    if (Index < 0 ||
        static_cast<uint64_t>(Index) >= (*In.Mem)[Id].size()) {
      R.OutOfBounds = true;
      R.Addr = In.ArrayBase[Id];
      if (In.Hooks_)
        In.Hooks_->onStore(R.Addr, V); // Buffered even when out of bounds.
    } else {
      R.Addr = In.ArrayBase[Id] + static_cast<uint64_t>(Index) * 8;
      const bool Consumed = In.Hooks_ && In.Hooks_->onStore(R.Addr, V);
      if (!Consumed)
        (*In.Mem)[Id][static_cast<size_t>(Index)] = V;
    }
    advance();
    break;
  }

  case Opcode::Call: {
    const Function *Callee = In.M.function(I.calleeIndex());
    In.ArgScratch.clear();
    for (size_t A = 0; A != I.Srcs.size(); ++A)
      In.ArgScratch.push_back(Regs[I.Srcs[A]]);
    if (Callee->isExternal()) {
      const Value V = In.evalBuiltinKind(Interpreter::builtinKindOf(*Callee),
                                         In.ArgScratch.data());
      setDst(V);
      advance();
      break;
    }
    R.IsCallEnter = true;
    advance(); // Return will resume after the call.
    In.pushFrame(Callee, I.Dst, In.ArgScratch.data(), In.ArgScratch.size());
    break;
  }

  case Opcode::Br: {
    const bool Taken = RegV(0).I != 0;
    R.IsBranch = true;
    R.BranchTaken = Taken;
    const BlockId Target = BB->Succs[Taken ? 0 : 1];
    R.NextBlock = Target;
    Fr.Block = Target;
    Fr.Index = 0;
    break;
  }
  case Opcode::Jmp: {
    R.IsBranch = true;
    R.BranchTaken = true;
    const BlockId Target = BB->Succs[0];
    R.NextBlock = Target;
    Fr.Block = Target;
    Fr.Index = 0;
    break;
  }
  case Opcode::Ret: {
    R.IsReturn = true;
    Value V;
    if (!I.Srcs.empty())
      V = RegV(0);
    const Reg Dst = Fr.RetDst;
    In.ArenaTop = Fr.RegBase;
    In.Stack.pop_back();
    if (In.Stack.empty())
      In.RetValue = V;
    else if (Dst != NoReg)
      In.RegArena[In.Stack.back().RegBase + Dst] = V;
    R.Result = V;
    break;
  }

  case Opcode::SptFork:
    R.IsFork = true;
    advance();
    break;
  case Opcode::SptKill:
    R.IsKill = true;
    advance();
    break;
  }

  // Fall off the end of a block is impossible: blocks end in terminators.
  return R;
}

uint64_t spt::hashStepResult(uint64_t H, const StepResult &R) {
  auto mix = [&H](uint64_t Bits) {
    for (int Byte = 0; Byte != 8; ++Byte) {
      H ^= (Bits >> (Byte * 8)) & 0xffu;
      H *= 0x100000001b3ull;
    }
  };
  mix(reinterpret_cast<uintptr_t>(R.F));
  mix(reinterpret_cast<uintptr_t>(R.I));
  mix((uint64_t(R.Block) << 32) | R.Index);
  mix(uint64_t(R.IsLoad) | (uint64_t(R.IsStore) << 1) |
      (uint64_t(R.OutOfBounds) << 2) | (uint64_t(R.IsBranch) << 3) |
      (uint64_t(R.BranchTaken) << 4) | (uint64_t(R.IsCallEnter) << 5) |
      (uint64_t(R.IsReturn) << 6) | (uint64_t(R.IsFork) << 7) |
      (uint64_t(R.IsKill) << 8));
  mix(R.Addr);
  mix(R.NextBlock);
  mix(static_cast<uint64_t>(R.Result.I));
  return H;
}

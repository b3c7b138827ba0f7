//===- interp/Interp.cpp - Steppable IR interpreter -------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
// This file implements the machine state and step(), the tree-walking
// switch over ir::Instr. The decoded engine behind run() and runWith()
// lives in Decode.cpp and DecodeEngine.h; both operate on the same state
// and must stay byte-identical in every observable
// (tests/interp_decode_test.cpp).
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "interp/Decode.h"
#include "support/Debug.h"
#include "support/WrapMath.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace spt;

Interpreter::MemHooks::~MemHooks() = default;

std::vector<uint64_t> spt::arrayBaseLayout(const Module &M) {
  std::vector<uint64_t> Bases(M.numArrays());
  uint64_t Base = 0x1000;
  for (size_t I = 0; I != M.numArrays(); ++I) {
    const ArrayDecl &A = M.array(static_cast<uint32_t>(I));
    Bases[I] = Base;
    Base += A.Size * 8;
    // Pad between arrays so streaming through one never prefetches
    // another's line in the cache model.
    Base = (Base + 255) & ~uint64_t(255);
  }
  return Bases;
}

Interpreter::Interpreter(const Module &M, InterpOptions Opts)
    : M(M), Mem(&OwnMemory), ArrayBase(arrayBaseLayout(M)), Rng(Opts.RngSeed),
      Opts(Opts) {
  OwnMemory.resize(M.numArrays());
  for (size_t I = 0; I != M.numArrays(); ++I)
    OwnMemory[I].assign(M.array(static_cast<uint32_t>(I)).Size, Value());
  // Pre-size the register arena so the first frames of a run never
  // reallocate: one activation of every function covers the common
  // shallow call trees.
  size_t Slots = 0;
  for (size_t I = 0; I != M.numFunctions(); ++I)
    Slots += M.function(static_cast<uint32_t>(I))->numRegs() + 1;
  RegArena.reserve(Slots + 64);
}

Interpreter::Interpreter(const Module &M, Interpreter &Other)
    : M(M), Mem(Other.Mem), ArrayBase(Other.ArrayBase), Rng(Other.Rng),
      Opts(Other.Opts), FnImages(Other.FnImages) {
  assert(&M == &Other.M && "memory sharing requires the same module");
  RegArena.reserve(Other.RegArena.capacity());
}

void Interpreter::reset() {
  for (size_t I = 0; I != Mem->size(); ++I) {
    const ArrayDecl &A = M.array(static_cast<uint32_t>(I));
    (*Mem)[I].assign(A.Size, Value());
  }
  Stack.clear();
  ArenaTop = 0;
  RetValue = Value();
  InstrsExecuted = 0;
  Output.clear();
  if (Output.capacity() < 256)
    Output.reserve(256);
  Rng.reseed(Opts.RngSeed);
}

void Interpreter::pushFrame(const Function *Callee, Reg RetDst,
                            const Value *Args, size_t NArgs) {
  Frame Fr;
  Fr.F = Callee;
  Fr.Block = Callee->entry();
  Fr.Index = 0;
  Fr.RetDst = RetDst;
  Fr.RegBase = ArenaTop;
  // One extra slot past numRegs: the decoded engine redirects writes whose
  // IR destination is NoReg (legal for value-producing dead code) there
  // instead of branching on every op.
  const size_t N = Callee->numRegs() + 1;
  assert(NArgs <= Callee->numRegs() && "more arguments than registers");
  if (RegArena.size() < ArenaTop + N)
    RegArena.resize(ArenaTop + N);
  std::fill(RegArena.begin() + Fr.RegBase, RegArena.begin() + Fr.RegBase + N,
            Value());
  std::copy(Args, Args + NArgs, RegArena.begin() + Fr.RegBase);
  ArenaTop += N;
  Stack.push_back(Fr);
}

void Interpreter::startAt(const Function *F, BlockId Block, uint32_t Index,
                          const std::vector<Value> &Regs) {
  assert(Stack.empty() && "previous call still active");
  assert(Regs.size() == F->numRegs() && "register file size mismatch");
  pushFrame(F, NoReg, Regs.data(), Regs.size());
  Stack.back().Block = Block;
  Stack.back().Index = Index;
}

void Interpreter::startCall(const Function *F, const std::vector<Value> &Args) {
  assert(Stack.empty() && "previous call still active");
  assert(!F->isExternal() && "cannot start an external function");
  assert(Args.size() == F->numParams() && "wrong argument count");
  pushFrame(F, NoReg, Args.data(), Args.size());
}

Interpreter::BuiltinKind Interpreter::builtinKindOf(const Function &Callee) {
  const std::string &Name = Callee.name();
  if (Name == "sqrt")
    return BuiltinKind::Sqrt;
  if (Name == "log")
    return BuiltinKind::Log;
  if (Name == "exp")
    return BuiltinKind::Exp;
  if (Name == "rnd")
    return BuiltinKind::Rnd;
  if (Name == "print_int")
    return BuiltinKind::PrintInt;
  if (Name == "print_fp")
    return BuiltinKind::PrintFp;
  return BuiltinKind::Unknown;
}

StatefulBuiltin spt::statefulBuiltinOf(const Function &F) {
  if (!F.isExternal())
    return StatefulBuiltin::None;
  const std::string &Name = F.name();
  if (Name == "rnd")
    return StatefulBuiltin::Rnd;
  if (Name == "print_int" || Name == "print_fp")
    return StatefulBuiltin::Io;
  return StatefulBuiltin::None;
}

void Interpreter::appendOutput(const char *Buf, size_t Len) {
  // Geometric growth: snprintf chunks are tiny, and print-heavy programs
  // (the paper's trace workloads) would otherwise reallocate per line.
  if (Output.size() + Len > Output.capacity())
    Output.reserve(std::max(Output.capacity() * 2, Output.size() + Len));
  Output.append(Buf, Len);
}

Value Interpreter::evalBuiltinKind(BuiltinKind K, const Value *Args) {
  switch (K) {
  case BuiltinKind::Sqrt:
    return Value::ofFp(Args[0].F <= 0.0 ? 0.0 : std::sqrt(Args[0].F));
  case BuiltinKind::Log:
    return Value::ofFp(Args[0].F <= 0.0 ? 0.0 : std::log(Args[0].F));
  case BuiltinKind::Exp:
    return Value::ofFp(std::exp(Args[0].F));
  case BuiltinKind::Rnd: {
    const int64_t Bound = Args[0].I;
    return Value::ofInt(Bound <= 0 ? 0 : Rng.nextBelow(Bound));
  }
  case BuiltinKind::PrintInt: {
    char Buf[32];
    const int N = std::snprintf(Buf, sizeof(Buf), "%lld\n",
                                static_cast<long long>(Args[0].I));
    appendOutput(Buf, static_cast<size_t>(N));
    return Value();
  }
  case BuiltinKind::PrintFp: {
    char Buf[64];
    const int N = std::snprintf(Buf, sizeof(Buf), "%.6f\n", Args[0].F);
    appendOutput(Buf, static_cast<size_t>(N));
    return Value();
  }
  case BuiltinKind::Unknown:
    break;
  }
  spt_fatal("unknown external function called");
}

StepResult Interpreter::step() {
  assert(!Stack.empty() && "step() on a finished machine");
  Frame &Fr = Stack.back();
  const BasicBlock *BB = Fr.F->block(Fr.Block);
  assert(Fr.Index < BB->Instrs.size() && "frame position out of range");
  const Instr &I = BB->Instrs[Fr.Index];
  Value *Regs = RegArena.data() + Fr.RegBase;

  StepResult R;
  R.F = Fr.F;
  R.I = &I;
  R.Block = Fr.Block;
  R.Index = Fr.Index;
  ++InstrsExecuted;

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
        static_cast<uint64_t>(Index) >= (*Mem)[Id].size()) {
      R.OutOfBounds = true;
      R.Addr = ArrayBase[Id]; // Clamped address for the cache model.
      Loaded = Value();
    } else {
      R.Addr = addressOf(Id, static_cast<uint64_t>(Index));
      Loaded = (*Mem)[Id][static_cast<size_t>(Index)];
    }
    if (Hooks_)
      Loaded = Hooks_->onLoad(R.Addr, Loaded);
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
        static_cast<uint64_t>(Index) >= (*Mem)[Id].size()) {
      R.OutOfBounds = true;
      R.Addr = ArrayBase[Id];
      if (Hooks_)
        Hooks_->onStore(R.Addr, V); // Buffered even when out of bounds.
    } else {
      R.Addr = addressOf(Id, static_cast<uint64_t>(Index));
      const bool Consumed = Hooks_ && Hooks_->onStore(R.Addr, V);
      if (!Consumed)
        (*Mem)[Id][static_cast<size_t>(Index)] = V;
    }
    advance();
    break;
  }

  case Opcode::Call: {
    const Function *Callee = M.function(I.calleeIndex());
    ArgScratch.clear();
    for (size_t A = 0; A != I.Srcs.size(); ++A)
      ArgScratch.push_back(Regs[I.Srcs[A]]);
    if (Callee->isExternal()) {
      const Value V = evalBuiltinKind(builtinKindOf(*Callee),
                                      ArgScratch.data());
      setDst(V);
      advance();
      break;
    }
    R.IsCallEnter = true;
    advance(); // Return will resume after the call.
    pushFrame(Callee, I.Dst, ArgScratch.data(), ArgScratch.size());
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
    ArenaTop = Fr.RegBase;
    Stack.pop_back();
    if (Stack.empty())
      RetValue = V;
    else if (Dst != NoReg)
      RegArena[Stack.back().RegBase + Dst] = V;
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

RunOutcome spt::runFunction(const Module &M, const std::string &FnName,
                            const std::vector<Value> &Args,
                            uint64_t MaxSteps) {
  const Function *F = M.findFunction(FnName);
  if (!F)
    spt_fatal("runFunction: no such function");
  Interpreter In(M);
  In.startCall(F, Args);
  const uint64_t Steps = In.run(MaxSteps);
  if (!In.done())
    spt_fatal("runFunction: step budget exhausted (infinite loop?)");
  RunOutcome O;
  O.Result = In.returnValue();
  O.Output = In.output();
  O.Instrs = Steps;
  return O;
}

Value Interpreter::peekAddr(uint64_t Addr) const {
  for (size_t Id = 0; Id != ArrayBase.size(); ++Id) {
    const uint64_t Base = ArrayBase[Id];
    const uint64_t Size = (*Mem)[Id].size() * 8;
    if (Addr >= Base && Addr < Base + Size)
      return (*Mem)[Id][(Addr - Base) / 8];
  }
  return Value();
}

uint64_t Interpreter::memoryHash() const {
  uint64_t H = 0xcbf29ce484222325ull; // FNV-1a offset basis.
  auto mix = [&H](uint64_t Bits) {
    for (int Byte = 0; Byte != 8; ++Byte) {
      H ^= (Bits >> (Byte * 8)) & 0xffu;
      H *= 0x100000001b3ull;
    }
  };
  for (const std::vector<Value> &Arr : *Mem) {
    mix(Arr.size());
    for (const Value &V : Arr)
      mix(static_cast<uint64_t>(V.I));
  }
  return H;
}

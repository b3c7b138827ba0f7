//===- interp/Interp.cpp - Steppable IR interpreter -------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
// This file implements the machine state: memory, frames, builtins. The
// decoded engine that executes instructions, behind run() and runWith(),
// lives in Decode.cpp and DecodeEngine.h.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "interp/Decode.h"
#include "support/Debug.h"

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
      Opts(Opts), Images(std::make_shared<ImageTable>(M.numFunctions())) {
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
      Opts(Other.Opts), Images(Other.Images) {
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

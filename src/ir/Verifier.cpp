//===- ir/Verifier.cpp - IR structural invariants ------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/IR.h"

#include <cstdint>
#include <string>
#include <vector>

using namespace spt;

namespace {

/// Accumulates the first verification failure.
class VerifyContext {
public:
  VerifyContext(const Module &M, const Function &F) : M(M), F(F) {}

  bool failed() const { return !Message.empty(); }
  const std::string &message() const { return Message; }

  /// Records a failure (keeps only the first).
  void fail(const std::string &What) {
    if (Message.empty())
      Message = "function '" + F.name() + "': " + What;
  }

  void checkInstr(const BasicBlock &BB, size_t Idx, const Instr &I);

private:
  const Module &M;
  const Function &F;
  std::string Message;
};

} // namespace

void VerifyContext::checkInstr(const BasicBlock &BB, size_t Idx,
                               const Instr &I) {
  // The location prefix is formatted only once a check fails, so a valid
  // instruction verifies without allocating.
  const auto Fail = [&](const std::string &What) {
    fail("block '" + BB.label() + "' instr #" + std::to_string(Idx) + " (" +
         opcodeName(I.Op) + "): " + What);
  };

  if (isTerminator(I.Op) && Idx + 1 != BB.Instrs.size())
    return Fail("terminator is not last in block");

  const int Expected = expectedNumSrcs(I.Op);
  if (Expected >= 0 && I.Srcs.size() != static_cast<size_t>(Expected))
    return Fail("expected " + std::to_string(Expected) + " operands, got " +
                std::to_string(I.Srcs.size()));
  if (I.Op == Opcode::Ret && I.Srcs.size() > 1)
    return Fail("ret takes at most one operand");

  for (Reg R : I.Srcs)
    if (R >= F.numRegs())
      return Fail("source register out of range");

  if (I.Dst != NoReg) {
    if (!producesValue(I.Op))
      return Fail("opcode cannot define a register");
    if (I.Dst >= F.numRegs())
      return Fail("destination register out of range");
  }

  if (I.Op == Opcode::Load || I.Op == Opcode::Store) {
    if (I.IntImm < 0 || static_cast<size_t>(I.IntImm) >= M.numArrays())
      return Fail("array id out of range");
  }

  if (I.Op == Opcode::Call) {
    if (I.IntImm < 0 || static_cast<size_t>(I.IntImm) >= M.numFunctions())
      return Fail("callee index out of range");
    const Function *Callee = M.function(I.calleeIndex());
    if (I.Srcs.size() != Callee->numParams())
      return Fail("call to '" + Callee->name() + "' expects " +
                  std::to_string(Callee->numParams()) + " args, got " +
                  std::to_string(I.Srcs.size()));
    if (Callee->returnType() == Type::Void && I.Dst != NoReg)
      return Fail("void call must not define a register");
  }
}

std::string spt::verifyFunction(const Module &M, const Function &F) {
  VerifyContext Ctx(M, F);
  if (F.isExternal())
    return std::string();

  if (F.numBlocks() == 0) {
    Ctx.fail("function has no blocks");
    return Ctx.message();
  }

  // Seen statement ids, indexed by id. Ids come from newStmtId, so every
  // id of a well-formed function is below maxStmtId(); a larger one grows
  // the table.
  std::vector<uint8_t> SeenIds(F.maxStmtId(), 0);
  for (const auto &BB : F) {
    if (BB->Instrs.empty()) {
      Ctx.fail("block '" + BB->label() + "' is empty");
      break;
    }
    if (!BB->hasTerminator()) {
      Ctx.fail("block '" + BB->label() + "' lacks a terminator");
      break;
    }

    // Successor arity must match the terminator.
    const Opcode Term = BB->Instrs.back().Op;
    const size_t WantSuccs =
        Term == Opcode::Br ? 2 : (Term == Opcode::Jmp ? 1 : 0);
    if (BB->Succs.size() != WantSuccs) {
      Ctx.fail("block '" + BB->label() + "' successor count mismatch");
      break;
    }
    for (BlockId S : BB->Succs)
      if (S >= F.numBlocks()) {
        Ctx.fail("block '" + BB->label() + "' has out-of-range successor");
        break;
      }

    for (size_t Idx = 0; Idx != BB->Instrs.size(); ++Idx) {
      const Instr &I = BB->Instrs[Idx];
      if (I.Id == NoStmt) {
        Ctx.fail("instruction without statement id");
        break;
      }
      if (I.Id >= SeenIds.size())
        SeenIds.resize(static_cast<size_t>(I.Id) + 1, 0);
      if (SeenIds[I.Id]) {
        Ctx.fail("duplicate statement id " + std::to_string(I.Id));
        break;
      }
      SeenIds[I.Id] = 1;
      Ctx.checkInstr(*BB, Idx, I);
      if (Ctx.failed())
        break;
    }
    if (Ctx.failed())
      break;
  }
  return Ctx.message();
}

std::string spt::verifyModule(const Module &M) {
  for (size_t I = 0; I != M.numFunctions(); ++I) {
    std::string Err = verifyFunction(M, *M.function(static_cast<uint32_t>(I)));
    if (!Err.empty())
      return Err;
  }
  return std::string();
}

//===- tests/ir_test.cpp - IR construction/printing/verifier tests ---------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace spt;

namespace {

/// Builds  int f(n):  s=0; for(i=0;i<n;i++) s+=i;  return s;
/// as raw IR. Returns the function.
Function *buildCountingLoop(Module &M) {
  Function *F = M.addFunction("f", Type::Int, 1);
  F->ParamTypes = {Type::Int};
  IRBuilder B(F);
  BasicBlock *Entry = B.makeBlock("entry");
  BasicBlock *Header = B.makeBlock("header");
  BasicBlock *Body = B.makeBlock("body");
  BasicBlock *Exit = B.makeBlock("exit");

  const Reg N = 0;
  const Reg S = F->newReg();
  const Reg I = F->newReg();

  B.setInsertBlock(Entry);
  Reg Z = B.constInt(0);
  B.copyTo(S, Type::Int, Z);
  B.copyTo(I, Type::Int, Z);
  B.jmp(Header);

  B.setInsertBlock(Header);
  Reg C = B.cmpLt(I, N);
  B.br(C, Body, Exit);

  B.setInsertBlock(Body);
  Reg NewS = B.add(S, I);
  B.copyTo(S, Type::Int, NewS);
  Reg One = B.constInt(1);
  Reg NewI = B.add(I, One);
  B.copyTo(I, Type::Int, NewI);
  B.jmp(Header);

  B.setInsertBlock(Exit);
  B.ret(S);
  return F;
}

} // namespace

TEST(IrTest, BuilderProducesVerifiableFunction) {
  Module M;
  Function *F = buildCountingLoop(M);
  EXPECT_EQ(verifyFunction(M, *F), "");
  EXPECT_EQ(F->numBlocks(), 4u);
}

TEST(IrTest, StatementIdsAreUnique) {
  Module M;
  Function *F = buildCountingLoop(M);
  std::set<StmtId> Ids;
  for (const auto &BB : *F)
    for (const Instr &I : BB->Instrs)
      EXPECT_TRUE(Ids.insert(I.Id).second) << "duplicate id " << I.Id;
}

TEST(IrTest, PrinterShowsStructure) {
  Module M;
  Function *F = buildCountingLoop(M);
  const std::string Text = functionToString(M, *F);
  EXPECT_NE(Text.find("int f(r0)"), std::string::npos);
  EXPECT_NE(Text.find("header:"), std::string::npos);
  EXPECT_NE(Text.find("cmplt"), std::string::npos);
  EXPECT_NE(Text.find("-> bb2, bb3"), std::string::npos);
}

TEST(IrTest, VerifierCatchesMissingTerminator) {
  Module M;
  Function *F = M.addFunction("g", Type::Void, 0);
  BasicBlock *BB = F->addBlock("entry");
  IRBuilder B(F);
  B.setInsertBlock(BB);
  B.constInt(1); // No terminator.
  const std::string Err = verifyFunction(M, *F);
  EXPECT_NE(Err.find("terminator"), std::string::npos);
}

TEST(IrTest, VerifierCatchesSuccessorMismatch) {
  Module M;
  Function *F = M.addFunction("g", Type::Void, 0);
  BasicBlock *BB = F->addBlock("entry");
  IRBuilder B(F);
  B.setInsertBlock(BB);
  B.ret();
  BB->Succs.push_back(0); // Ret must have zero successors.
  const std::string Err = verifyFunction(M, *F);
  EXPECT_NE(Err.find("successor"), std::string::npos);
}

TEST(IrTest, VerifierCatchesBadRegister) {
  Module M;
  Function *F = M.addFunction("g", Type::Int, 0);
  BasicBlock *BB = F->addBlock("entry");
  IRBuilder B(F);
  B.setInsertBlock(BB);
  Reg R = B.constInt(3);
  B.ret(R);
  BB->Instrs[1].Srcs[0] = 1000; // Out of range.
  const std::string Err = verifyFunction(M, *F);
  EXPECT_NE(Err.find("register"), std::string::npos);
}

TEST(IrTest, VerifierCatchesBadCallArity) {
  Module M;
  Function *Callee = M.addFunction("h", Type::Int, 2);
  Callee->ParamTypes = {Type::Int, Type::Int};
  (void)Callee;
  Function *F = M.addFunction("g", Type::Int, 0);
  BasicBlock *BB = F->addBlock("entry");
  IRBuilder B(F);
  B.setInsertBlock(BB);
  Reg A = B.constInt(1);
  Reg R = B.call(Type::Int, 0, {A}); // h expects 2 args.
  B.ret(R);
  const std::string Err = verifyFunction(M, *F);
  EXPECT_NE(Err.find("args"), std::string::npos);
}

namespace {

/// One verifier message: \c Break damages a valid function (see
/// verifyBroken) and returns the function to verify; \c Want is the whole
/// message, or "" when the damage must still verify clean.
struct VerifierCase {
  const char *Name;
  const Function &(*Break)(Module &M, Function &G);
  const char *Want;
};

/// Builds  h(int, int) -> int  and  v() -> void  (declarations only,
/// indices 0 and 1), one array, and  g() -> int  at index 2:
///   entry: #0 r0 = iconst 1; #1 r1 = add r0, r0; #2 ret r1
/// with statement ids 0, 1, 2. Applies \p C's damage and verifies.
std::string verifyBroken(const VerifierCase &C) {
  Module M;
  M.addArray("a", Type::Int, 4);
  Function *H = M.addFunction("h", Type::Int, 2);
  H->ParamTypes = {Type::Int, Type::Int};
  M.addFunction("v", Type::Void, 0);
  Function *G = M.addFunction("g", Type::Int, 0);
  IRBuilder B(G);
  B.setInsertBlock(B.makeBlock("entry"));
  const Reg R0 = B.constInt(1);
  B.ret(B.add(R0, R0));
  EXPECT_EQ(verifyFunction(M, *G), "") << C.Name;
  return verifyFunction(M, C.Break(M, *G));
}

std::vector<Instr> &entryInstrs(Function &G) { return G.block(0)->Instrs; }

/// Turns instruction #1 of g into a call to function \p Callee with the
/// given operands, keeping its destination register.
void makeCall(Function &G, int64_t Callee, std::vector<Reg> Srcs) {
  Instr &I = entryInstrs(G)[1];
  I.Op = Opcode::Call;
  I.IntImm = Callee;
  I.Srcs = std::move(Srcs);
}

const VerifierCase VerifierCases[] = {
    {"NoBlocks",
     [](Module &M, Function &) -> const Function & {
       return *M.addFunction("e", Type::Void, 0);
     },
     "function 'e': function has no blocks"},
    {"EmptyBlock",
     [](Module &, Function &G) -> const Function & {
       G.addBlock("tail");
       return G;
     },
     "function 'g': block 'tail' is empty"},
    {"MissingTerminator",
     [](Module &, Function &G) -> const Function & {
       entryInstrs(G).pop_back();
       return G;
     },
     "function 'g': block 'entry' lacks a terminator"},
    {"SuccessorCount",
     [](Module &, Function &G) -> const Function & {
       G.block(0)->Succs.push_back(0);
       return G;
     },
     "function 'g': block 'entry' successor count mismatch"},
    {"SuccessorOutOfRange",
     [](Module &, Function &G) -> const Function & {
       Instr &T = entryInstrs(G).back();
       T.Op = Opcode::Jmp;
       T.Srcs.clear();
       G.block(0)->Succs.push_back(7);
       return G;
     },
     "function 'g': block 'entry' has out-of-range successor"},
    {"MissingStatementId",
     [](Module &, Function &G) -> const Function & {
       entryInstrs(G)[1].Id = NoStmt;
       return G;
     },
     "function 'g': instruction without statement id"},
    {"DuplicateStatementId",
     [](Module &, Function &G) -> const Function & {
       entryInstrs(G)[2].Id = entryInstrs(G)[1].Id;
       return G;
     },
     "function 'g': duplicate statement id 1"},
    {"DuplicateStatementIdPastMax",
     [](Module &, Function &G) -> const Function & {
       entryInstrs(G)[1].Id = G.maxStmtId() + 5;
       entryInstrs(G)[2].Id = G.maxStmtId() + 5;
       return G;
     },
     "function 'g': duplicate statement id 8"},
    {"TerminatorNotLast",
     [](Module &, Function &G) -> const Function & {
       Instr Early = entryInstrs(G).back();
       Early.Id = G.newStmtId();
       entryInstrs(G).insert(entryInstrs(G).begin(), Early);
       return G;
     },
     "function 'g': block 'entry' instr #0 (ret): terminator is not last "
     "in block"},
    {"OperandCount",
     [](Module &, Function &G) -> const Function & {
       entryInstrs(G)[1].Srcs.pop_back();
       return G;
     },
     "function 'g': block 'entry' instr #1 (add): expected 2 operands, got "
     "1"},
    {"RetOperands",
     [](Module &, Function &G) -> const Function & {
       entryInstrs(G)[2].Srcs.push_back(0);
       return G;
     },
     "function 'g': block 'entry' instr #2 (ret): ret takes at most one "
     "operand"},
    {"SourceRegister",
     [](Module &, Function &G) -> const Function & {
       entryInstrs(G)[1].Srcs[1] = 99;
       return G;
     },
     "function 'g': block 'entry' instr #1 (add): source register out of "
     "range"},
    {"DefiningNonValueOpcode",
     [](Module &, Function &G) -> const Function & {
       entryInstrs(G)[2].Dst = 0;
       return G;
     },
     "function 'g': block 'entry' instr #2 (ret): opcode cannot define a "
     "register"},
    {"DestinationRegister",
     [](Module &, Function &G) -> const Function & {
       entryInstrs(G)[0].Dst = 99;
       return G;
     },
     "function 'g': block 'entry' instr #0 (iconst): destination register "
     "out of range"},
    {"ArrayId",
     [](Module &, Function &G) -> const Function & {
       Instr &I = entryInstrs(G)[1];
       I.Op = Opcode::Load;
       I.Srcs = {0};
       I.IntImm = 1;
       return G;
     },
     "function 'g': block 'entry' instr #1 (load): array id out of range"},
    {"CalleeIndex",
     [](Module &, Function &G) -> const Function & {
       makeCall(G, 9, {});
       return G;
     },
     "function 'g': block 'entry' instr #1 (call): callee index out of "
     "range"},
    {"CallArity",
     [](Module &, Function &G) -> const Function & {
       makeCall(G, 0, {0});
       return G;
     },
     "function 'g': block 'entry' instr #1 (call): call to 'h' expects 2 "
     "args, got 1"},
    {"VoidCallDefines",
     [](Module &, Function &G) -> const Function & {
       makeCall(G, 1, {});
       return G;
     },
     "function 'g': block 'entry' instr #1 (call): void call must not "
     "define a register"},
    {"StatementIdAtMaxIsClean",
     [](Module &, Function &G) -> const Function & {
       entryInstrs(G)[1].Id = G.maxStmtId();
       entryInstrs(G)[2].Id = G.maxStmtId() + 1000;
       return G;
     },
     ""},
};

} // namespace

// Every verifier message, compared whole: callers (the compiler's
// post-transform check, the fuzz oracles) print them verbatim.
TEST(IrTest, VerifierMessagesPinned) {
  for (const VerifierCase &C : VerifierCases)
    EXPECT_EQ(verifyBroken(C), C.Want) << C.Name;
}

TEST(IrTest, ModuleLookupHelpers) {
  Module M;
  const uint32_t A = M.addArray("data", Type::Int, 16);
  EXPECT_EQ(M.arrayIdOf("data"), A);
  Function *F = buildCountingLoop(M);
  EXPECT_EQ(M.findFunction("f"), F);
  EXPECT_EQ(M.indexOf(F), 0u);
  EXPECT_EQ(M.findFunction("nope"), nullptr);
}

TEST(IrTest, OpcodePredicates) {
  EXPECT_TRUE(isTerminator(Opcode::Br));
  EXPECT_TRUE(isTerminator(Opcode::Ret));
  EXPECT_FALSE(isTerminator(Opcode::Add));
  EXPECT_TRUE(hasSideEffects(Opcode::Store));
  EXPECT_TRUE(hasSideEffects(Opcode::Call));
  EXPECT_FALSE(hasSideEffects(Opcode::Mul));
  EXPECT_TRUE(touchesMemory(Opcode::Load));
  EXPECT_FALSE(touchesMemory(Opcode::Add));
  EXPECT_TRUE(producesValue(Opcode::Add));
  EXPECT_FALSE(producesValue(Opcode::Store));
  EXPECT_TRUE(isComparison(Opcode::FCmpLe));
  EXPECT_FALSE(isComparison(Opcode::Copy));
  EXPECT_EQ(opcodeClass(Opcode::FMul), OpClass::FpMul);
  EXPECT_EQ(opcodeClass(Opcode::Load), OpClass::MemLoad);
  EXPECT_EQ(expectedNumSrcs(Opcode::Select), 3);
  EXPECT_EQ(expectedNumSrcs(Opcode::Call), -1);
}

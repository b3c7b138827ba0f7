//===- interp/DecodeEngine.h - Decoded engine, templated over its sink ----===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decoded execution engine: one dispatch loop, templated over the
/// step sink, plus Interpreter::runWith, its entry point. Private to the
/// executors: interp/Decode.cpp instantiates it for run() (no records at
/// all); the profiler, runSequential, the SPT main core and the chain
/// ghosts include this header and instantiate it with their own concrete
/// sink, so their per-instruction handler is inlined into every dispatch
/// handler. spt.h does not include it.
///
/// Dispatch is computed goto (GCC/Clang labels-as-values); the opcode
/// bodies are written behind macros.
///
/// The byte-identity discipline: every record a fused or plain decoded op
/// emits is constructed with exactly the fields of the single-instruction
/// semantics, at the exact sequential point (a fused pair emits its first
/// record before the second instruction executes). A fused pair checks
/// for a stop between its halves: when the sink stopped or the step
/// budget ran out after the first, the engine exits with the machine on
/// the pair's second instruction, which keeps its plain decoding, so the
/// next run resumes there.
///
/// A concrete sink is any class with `bool onStep(const StepResult &R)`
/// (return false to stop after this record). Mark it SPT_ALWAYS_INLINE
/// and keep it small: it is copied into each of the engine's handlers,
/// where the record flags it tests are constants. Move calls, returns and
/// other rare work behind an SPT_NOINLINE member.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_INTERP_DECODEENGINE_H
#define SPT_INTERP_DECODEENGINE_H

#include "interp/Decode.h"
#include "interp/Interp.h"
#include "support/Compiler.h"
#include "support/WrapMath.h"

#include <cmath>
#include <vector>

#if !defined(__GNUC__) && !defined(__clang__)
#error "the decoded engine's dispatch loop needs computed goto (GCC or Clang)"
#endif

namespace spt {

/// The decoded execution engine (friend of Interpreter). Also the decode
/// pass's door into Interpreter's private BuiltinKind resolution.
struct DecodeEngine {
  template <class Sink>
  static uint64_t run(Interpreter &In, Sink &S, uint64_t MaxSteps);

  static uint32_t builtinKindRaw(const Function &F) {
    return static_cast<uint32_t>(Interpreter::builtinKindOf(F));
  }

private:
  /// Whether \p Sink wants records. Only run()'s record-free sink says no
  /// (static constexpr bool NeedsRecords = false).
  template <class Sink> static constexpr bool sinkNeedsRecords() {
    if constexpr (requires { Sink::NeedsRecords; })
      return Sink::NeedsRecords;
    else
      return true;
  }
};

template <class Sink>
uint64_t DecodeEngine::run(Interpreter &In, Sink &S, uint64_t MaxSteps) {
  constexpr bool Rec = sinkNeedsRecords<Sink>();
  if (In.Stack.empty() || MaxSteps == 0)
    return 0;

  uint64_t Steps = 0;
  bool Go = true;

  // Decoded images for every live frame (an earlier bounded run may have
  // stopped inside a call).
  std::vector<const DecodedFunction *> Imgs;
  Imgs.reserve(In.Stack.size() + 16);
  for (const Frame &Fr : In.Stack)
    Imgs.push_back(In.imageOf(Fr.F));

  const Function *CurF = In.Stack.back().F;
  const DecodedFunction *Img = Imgs.back();
  const DecOp *Code = Img->Code.data();
  uint32_t PC = Img->offsetOf(In.Stack.back().Block, In.Stack.back().Index);
  Value *R = In.RegArena.data() + In.Stack.back().RegBase;

  auto refreshTop = [&]() {
    const Frame &Fr = In.Stack.back();
    CurF = Fr.F;
    Img = Imgs.back();
    Code = Img->Code.data();
    R = In.RegArena.data() + Fr.RegBase;
  };

  // Record emitters. Each builds the instruction's StepResult and runs the
  // sink synchronously, right after the instruction retires and before
  // the next one starts. They are forced inline and build the record by
  // aggregate initialization (no constructor call), so with a concrete
  // sink every handler sees its record kind (load, store, branch, value
  // op) as compile-time constants.
  auto emit = [&](const StepResult &Rc) SPT_LAMBDA_INLINE {
    if (!S.onStep(Rc))
      Go = false;
  };
  auto emitVal = [&](const Instr *I, BlockId Blk, uint32_t Idx,
                     Value V) SPT_LAMBDA_INLINE {
    emit(StepResult{.F = CurF, .I = I, .Block = Blk, .Index = Idx,
                    .Result = V});
  };
  auto emitMem = [&](const Instr *I, BlockId Blk, uint32_t Idx, bool IsLoad,
                     uint64_t Addr, bool OOB, Value V) SPT_LAMBDA_INLINE {
    emit(StepResult{.F = CurF, .I = I, .Block = Blk, .Index = Idx,
                    .IsLoad = IsLoad, .IsStore = !IsLoad, .Addr = Addr,
                    .OutOfBounds = OOB, .Result = V});
  };
  auto emitBranch = [&](const Instr *I, BlockId Blk, uint32_t Idx, bool Taken,
                        BlockId Next) SPT_LAMBDA_INLINE {
    emit(StepResult{.F = CurF, .I = I, .Block = Blk, .Index = Idx,
                    .IsBranch = true, .BranchTaken = Taken,
                    .NextBlock = Next, .Result = Value()});
  };
  auto emitCallEnter = [&](const Instr *I, BlockId Blk,
                           uint32_t Idx) SPT_LAMBDA_INLINE {
    emit(StepResult{.F = CurF, .I = I, .Block = Blk, .Index = Idx,
                    .IsCallEnter = true, .Result = Value()});
  };
  auto emitRet = [&](const Instr *I, BlockId Blk, uint32_t Idx,
                     Value V) SPT_LAMBDA_INLINE {
    emit(StepResult{.F = CurF, .I = I, .Block = Blk, .Index = Idx,
                    .IsReturn = true, .Result = V});
  };
  auto emitMarker = [&](const Instr *I, BlockId Blk, uint32_t Idx,
                        bool Fork) SPT_LAMBDA_INLINE {
    emit(StepResult{.F = CurF, .I = I, .Block = Blk, .Index = Idx,
                    .IsFork = Fork, .IsKill = !Fork, .Result = Value()});
  };
  // The record-free instantiation discards every emit call site.
  (void)emit;
  (void)emitVal;
  (void)emitMem;
  (void)emitBranch;
  (void)emitCallEnter;
  (void)emitRet;
  (void)emitMarker;

  // Label table indexed by the raw DOp value — order must match the enum.
  const void *const Tbl[] = {
      &&L_Add,     &&L_Sub,     &&L_Mul,     &&L_Div,     &&L_Rem,
      &&L_Neg,     &&L_And,     &&L_Or,      &&L_Xor,     &&L_Shl,
      &&L_Shr,     &&L_Not,     &&L_Min,     &&L_Max,     &&L_Abs,
      &&L_FAdd,    &&L_FSub,    &&L_FMul,    &&L_FDiv,    &&L_FNeg,
      &&L_FAbs,    &&L_FMin,    &&L_FMax,    &&L_IntToFp, &&L_FpToInt,
      &&L_CmpEq,   &&L_CmpNe,   &&L_CmpLt,   &&L_CmpLe,   &&L_CmpGt,
      &&L_CmpGe,   &&L_FCmpEq,  &&L_FCmpNe,  &&L_FCmpLt,  &&L_FCmpLe,
      &&L_FCmpGt,  &&L_FCmpGe,  &&L_Copy,    &&L_ConstInt, &&L_ConstFp,
      &&L_Select,  &&L_Load,    &&L_Store,   &&L_Call,    &&L_CallExt,
      &&L_Br,      &&L_Jmp,     &&L_Ret,     &&L_SptFork, &&L_SptKill,
      &&L_CmpEqBr, &&L_CmpNeBr, &&L_CmpLtBr, &&L_CmpLeBr, &&L_CmpGtBr,
      &&L_CmpGeBr, &&L_ConstAdd, &&L_MulAdd, &&L_AddLoad, &&L_AddStore,
  };
  static_assert(sizeof(Tbl) / sizeof(Tbl[0]) ==
                    static_cast<size_t>(DOp::kCount),
                "label table out of sync with DOp");

#define SPT_CASE(Name) L_##Name:
#define SPT_NEXT()                                                             \
  do {                                                                         \
    if (SPT_LIKELY(Go && Steps < MaxSteps))                                    \
      goto *Tbl[static_cast<unsigned>(Code[PC].Op)];                           \
    goto ExitLoop;                                                             \
  } while (0)

  goto *Tbl[static_cast<unsigned>(Code[PC].Op)]; // MaxSteps > 0 here.

// One IR instruction writing a value: A = dst, operands per Expr.
#define SPT_VALOP(Name, Expr)                                                  \
  SPT_CASE(Name) {                                                             \
    const DecOp &O = Code[PC];                                                 \
    ++In.InstrsExecuted;                                                       \
    ++Steps;                                                                   \
    const Value V = (Expr);                                                    \
    R[O.A] = V;                                                                \
    if constexpr (Rec)                                                         \
      emitVal(O.I0, O.Block, O.Index, V);                                      \
    ++PC;                                                                      \
  }                                                                            \
  SPT_NEXT()

  SPT_VALOP(Add, Value::ofInt(wrapAdd(R[O.B].I, R[O.C].I)));
  SPT_VALOP(Sub, Value::ofInt(wrapSub(R[O.B].I, R[O.C].I)));
  SPT_VALOP(Mul, Value::ofInt(wrapMul(R[O.B].I, R[O.C].I)));
  SPT_VALOP(Div, Value::ofInt(wrapDiv(R[O.B].I, R[O.C].I)));
  SPT_VALOP(Rem, Value::ofInt(wrapRem(R[O.B].I, R[O.C].I)));
  SPT_VALOP(Neg, Value::ofInt(wrapNeg(R[O.B].I)));
  SPT_VALOP(And, Value::ofInt(R[O.B].I & R[O.C].I));
  SPT_VALOP(Or, Value::ofInt(R[O.B].I | R[O.C].I));
  SPT_VALOP(Xor, Value::ofInt(R[O.B].I ^ R[O.C].I));
  SPT_VALOP(Shl, Value::ofInt(wrapShl(R[O.B].I, R[O.C].I)));
  SPT_VALOP(Shr, Value::ofInt(R[O.B].I >> (R[O.C].I & 63)));
  SPT_VALOP(Not, Value::ofInt(~R[O.B].I));
  SPT_VALOP(Min, Value::ofInt(R[O.B].I < R[O.C].I ? R[O.B].I : R[O.C].I));
  SPT_VALOP(Max, Value::ofInt(R[O.B].I > R[O.C].I ? R[O.B].I : R[O.C].I));
  SPT_VALOP(Abs, Value::ofInt(wrapAbs(R[O.B].I)));

  SPT_VALOP(FAdd, Value::ofFp(R[O.B].F + R[O.C].F));
  SPT_VALOP(FSub, Value::ofFp(R[O.B].F - R[O.C].F));
  SPT_VALOP(FMul, Value::ofFp(R[O.B].F * R[O.C].F));
  SPT_VALOP(FDiv,
            Value::ofFp(R[O.C].F == 0.0 ? 0.0 : R[O.B].F / R[O.C].F));
  SPT_VALOP(FNeg, Value::ofFp(-R[O.B].F));
  SPT_VALOP(FAbs, Value::ofFp(std::fabs(R[O.B].F)));
  SPT_VALOP(FMin, Value::ofFp(R[O.B].F < R[O.C].F ? R[O.B].F : R[O.C].F));
  SPT_VALOP(FMax, Value::ofFp(R[O.B].F > R[O.C].F ? R[O.B].F : R[O.C].F));

  SPT_VALOP(IntToFp, Value::ofFp(static_cast<double>(R[O.B].I)));
  SPT_VALOP(FpToInt, Value::ofInt(static_cast<int64_t>(R[O.B].F)));

  SPT_VALOP(CmpEq, Value::ofInt(R[O.B].I == R[O.C].I));
  SPT_VALOP(CmpNe, Value::ofInt(R[O.B].I != R[O.C].I));
  SPT_VALOP(CmpLt, Value::ofInt(R[O.B].I < R[O.C].I));
  SPT_VALOP(CmpLe, Value::ofInt(R[O.B].I <= R[O.C].I));
  SPT_VALOP(CmpGt, Value::ofInt(R[O.B].I > R[O.C].I));
  SPT_VALOP(CmpGe, Value::ofInt(R[O.B].I >= R[O.C].I));
  SPT_VALOP(FCmpEq, Value::ofInt(R[O.B].F == R[O.C].F));
  SPT_VALOP(FCmpNe, Value::ofInt(R[O.B].F != R[O.C].F));
  SPT_VALOP(FCmpLt, Value::ofInt(R[O.B].F < R[O.C].F));
  SPT_VALOP(FCmpLe, Value::ofInt(R[O.B].F <= R[O.C].F));
  SPT_VALOP(FCmpGt, Value::ofInt(R[O.B].F > R[O.C].F));
  SPT_VALOP(FCmpGe, Value::ofInt(R[O.B].F >= R[O.C].F));

  SPT_VALOP(Copy, R[O.B]);
  SPT_VALOP(ConstInt, Value::ofInt(O.Imm));
  SPT_VALOP(ConstFp, Value::ofFp(O.FImm));
  SPT_VALOP(Select, R[O.B].I != 0 ? R[O.C] : R[O.T0]);

  SPT_CASE(Load) {
    const DecOp &O = Code[PC];
    ++In.InstrsExecuted;
    ++Steps;
    const int64_t Idx = R[O.B].I;
    const std::vector<Value> &Arr = (*In.Mem)[O.C];
    uint64_t Addr;
    bool OOB;
    Value V;
    if (static_cast<uint64_t>(Idx) >= Arr.size()) {
      OOB = true;
      Addr = O.UImm; // Clamped address for the cache model.
      V = Value();
    } else {
      OOB = false;
      Addr = O.UImm + static_cast<uint64_t>(Idx) * 8;
      V = Arr[static_cast<size_t>(Idx)];
    }
    if (In.Hooks_)
      V = In.Hooks_->onLoad(Addr, V);
    R[O.A] = V;
    if constexpr (Rec)
      emitMem(O.I0, O.Block, O.Index, /*IsLoad=*/true, Addr, OOB, V);
    ++PC;
  }
  SPT_NEXT();

  SPT_CASE(Store) {
    const DecOp &O = Code[PC];
    ++In.InstrsExecuted;
    ++Steps;
    const int64_t Idx = R[O.B].I;
    const Value V = R[O.C];
    std::vector<Value> &Arr = (*In.Mem)[O.A];
    uint64_t Addr;
    bool OOB;
    if (static_cast<uint64_t>(Idx) >= Arr.size()) {
      OOB = true;
      Addr = O.UImm;
      if (In.Hooks_)
        In.Hooks_->onStore(Addr, V); // Buffered even when out of bounds.
    } else {
      OOB = false;
      Addr = O.UImm + static_cast<uint64_t>(Idx) * 8;
      const bool Consumed = In.Hooks_ && In.Hooks_->onStore(Addr, V);
      if (!Consumed)
        Arr[static_cast<size_t>(Idx)] = V;
    }
    if constexpr (Rec)
      emitMem(O.I0, O.Block, O.Index, /*IsLoad=*/false, Addr, OOB, V);
    ++PC;
  }
  SPT_NEXT();

  SPT_CASE(CallExt) {
    const DecOp &O = Code[PC];
    ++In.InstrsExecuted;
    ++Steps;
    const Reg *ArgRegs = Img->SrcPool.data() + O.B;
    In.ArgScratch.clear();
    for (uint32_t K = 0; K != O.T0; ++K)
      In.ArgScratch.push_back(R[ArgRegs[K]]);
    const Value V = In.evalBuiltinKind(
        static_cast<Interpreter::BuiltinKind>(O.C), In.ArgScratch.data());
    R[O.A] = V;
    if constexpr (Rec)
      emitVal(O.I0, O.Block, O.Index, V);
    ++PC;
  }
  SPT_NEXT();

  SPT_CASE(Call) {
    const DecOp &O = Code[PC];
    ++In.InstrsExecuted;
    ++Steps;
    const Function *Callee = static_cast<const Function *>(O.P);
    const Reg *ArgRegs = Img->SrcPool.data() + O.B;
    In.ArgScratch.clear();
    for (uint32_t K = 0; K != O.T0; ++K)
      In.ArgScratch.push_back(R[ArgRegs[K]]);
    // Suspend the caller at its resume position, then enter the callee.
    Frame &Cur = In.Stack.back();
    Cur.Block = O.Block;
    Cur.Index = O.Index + 1;
    In.pushFrame(Callee, static_cast<Reg>(O.A), In.ArgScratch.data(),
                 In.ArgScratch.size());
    Imgs.push_back(In.imageByIndex(O.C));
    if constexpr (Rec)
      emitCallEnter(O.I0, O.Block, O.Index); // CurF is still the caller.
    refreshTop();
    PC = Img->offsetOf(Callee->entry(), 0);
  }
  SPT_NEXT();

  SPT_CASE(Ret) {
    const DecOp &O = Code[PC];
    ++In.InstrsExecuted;
    ++Steps;
    Value V;
    if (O.NSrcs)
      V = R[O.B];
    Frame &Cur = In.Stack.back();
    const Reg Dst = Cur.RetDst;
    In.ArenaTop = Cur.RegBase;
    const Instr *RetI = O.I0;
    const BlockId RetBlk = O.Block;
    const uint32_t RetIdx = O.Index;
    In.Stack.pop_back();
    Imgs.pop_back();
    if (In.Stack.empty()) {
      In.RetValue = V;
      if constexpr (Rec)
        emitRet(RetI, RetBlk, RetIdx, V);
      return Steps; // No frame left to sync.
    }
    const Frame &Caller = In.Stack.back();
    if (Dst != NoReg)
      In.RegArena[Caller.RegBase + Dst] = V;
    if constexpr (Rec)
      emitRet(RetI, RetBlk, RetIdx, V); // CurF is still the returning fn.
    refreshTop();
    PC = Img->offsetOf(Caller.Block, Caller.Index);
  }
  SPT_NEXT();

  SPT_CASE(Br) {
    const DecOp &O = Code[PC];
    ++In.InstrsExecuted;
    ++Steps;
    const bool Taken = R[O.B].I != 0;
    PC = Taken ? O.T0 : O.T1;
    if constexpr (Rec)
      emitBranch(O.I0, O.Block, O.Index, Taken,
                 static_cast<BlockId>(Taken ? (O.UImm & 0xffffffffu)
                                            : (O.UImm >> 32)));
  }
  SPT_NEXT();

  SPT_CASE(Jmp) {
    const DecOp &O = Code[PC];
    ++In.InstrsExecuted;
    ++Steps;
    PC = O.T0;
    if constexpr (Rec)
      emitBranch(O.I0, O.Block, O.Index, /*Taken=*/true,
                 static_cast<BlockId>(O.UImm));
  }
  SPT_NEXT();

  SPT_CASE(SptFork) {
    const DecOp &O = Code[PC];
    ++In.InstrsExecuted;
    ++Steps;
    if constexpr (Rec)
      emitMarker(O.I0, O.Block, O.Index, /*Fork=*/true);
    ++PC;
  }
  SPT_NEXT();

  SPT_CASE(SptKill) {
    const DecOp &O = Code[PC];
    ++In.InstrsExecuted;
    ++Steps;
    if constexpr (Rec)
      emitMarker(O.I0, O.Block, O.Index, /*Fork=*/false);
    ++PC;
  }
  SPT_NEXT();

// Between the halves of a fused pair: when the sink stopped or the budget
// ran out, leave the machine on the second instruction's plain slot.
#define SPT_PAIR_STOP()                                                        \
  do {                                                                         \
    if (!Go || Steps == MaxSteps) {                                            \
      ++PC;                                                                    \
      goto ExitLoop;                                                           \
    }                                                                          \
  } while (0)

// Fused integer compare + conditional branch. The branch condition is the
// compare's destination by construction, so the freshly computed value is
// the condition.
#define SPT_CMPBR(Name, CmpExpr)                                               \
  SPT_CASE(Name) {                                                             \
    const DecOp &O = Code[PC];                                                 \
    ++In.InstrsExecuted;                                                       \
    ++Steps;                                                                   \
    const Value CV = Value::ofInt(CmpExpr);                                    \
    R[O.A] = CV;                                                               \
    if constexpr (Rec)                                                         \
      emitVal(O.I0, O.Block, O.Index, CV);                                     \
    SPT_PAIR_STOP();                                                           \
    ++In.InstrsExecuted;                                                       \
    ++Steps;                                                                   \
    const bool Taken = CV.I != 0;                                              \
    PC = Taken ? O.T0 : O.T1;                                                  \
    if constexpr (Rec)                                                         \
      emitBranch(O.I1, O.Block, O.Index + 1, Taken,                            \
                 static_cast<BlockId>(Taken ? (O.UImm & 0xffffffffu)           \
                                            : (O.UImm >> 32)));                \
  }                                                                            \
  SPT_NEXT()

  SPT_CMPBR(CmpEqBr, R[O.B].I == R[O.C].I);
  SPT_CMPBR(CmpNeBr, R[O.B].I != R[O.C].I);
  SPT_CMPBR(CmpLtBr, R[O.B].I < R[O.C].I);
  SPT_CMPBR(CmpLeBr, R[O.B].I <= R[O.C].I);
  SPT_CMPBR(CmpGtBr, R[O.B].I > R[O.C].I);
  SPT_CMPBR(CmpGeBr, R[O.B].I >= R[O.C].I);

  SPT_CASE(ConstAdd) {
    const DecOp &O = Code[PC];
    ++In.InstrsExecuted;
    ++Steps;
    const Value CV = Value::ofInt(O.Imm);
    R[O.C] = CV;
    if constexpr (Rec)
      emitVal(O.I0, O.Block, O.Index, CV);
    SPT_PAIR_STOP();
    ++In.InstrsExecuted;
    ++Steps;
    const Value V = Value::ofInt(wrapAdd(R[O.B].I, R[O.C].I));
    R[O.A] = V;
    if constexpr (Rec)
      emitVal(O.I1, O.Block, O.Index + 1, V);
    PC += 2;
  }
  SPT_NEXT();

  SPT_CASE(MulAdd) {
    const DecOp &O = Code[PC];
    ++In.InstrsExecuted;
    ++Steps;
    const Value MV = Value::ofInt(wrapMul(R[O.B].I, R[O.C].I));
    R[O.T0] = MV;
    if constexpr (Rec)
      emitVal(O.I0, O.Block, O.Index, MV);
    SPT_PAIR_STOP();
    ++In.InstrsExecuted;
    ++Steps;
    const Value V = Value::ofInt(wrapAdd(R[O.T0].I, R[O.T1].I));
    R[O.A] = V;
    if constexpr (Rec)
      emitVal(O.I1, O.Block, O.Index + 1, V);
    PC += 2;
  }
  SPT_NEXT();

  SPT_CASE(AddLoad) {
    const DecOp &O = Code[PC];
    ++In.InstrsExecuted;
    ++Steps;
    const Value AV = Value::ofInt(wrapAdd(R[O.B].I, R[O.C].I));
    R[O.T0] = AV;
    if constexpr (Rec)
      emitVal(O.I0, O.Block, O.Index, AV);
    SPT_PAIR_STOP();
    ++In.InstrsExecuted;
    ++Steps;
    const int64_t Idx = R[O.T0].I;
    const std::vector<Value> &Arr = (*In.Mem)[O.T1];
    uint64_t Addr;
    bool OOB;
    Value V;
    if (static_cast<uint64_t>(Idx) >= Arr.size()) {
      OOB = true;
      Addr = O.UImm;
      V = Value();
    } else {
      OOB = false;
      Addr = O.UImm + static_cast<uint64_t>(Idx) * 8;
      V = Arr[static_cast<size_t>(Idx)];
    }
    if (In.Hooks_)
      V = In.Hooks_->onLoad(Addr, V);
    R[O.A] = V;
    if constexpr (Rec)
      emitMem(O.I1, O.Block, O.Index + 1, /*IsLoad=*/true, Addr, OOB, V);
    PC += 2;
  }
  SPT_NEXT();

  SPT_CASE(AddStore) {
    const DecOp &O = Code[PC];
    ++In.InstrsExecuted;
    ++Steps;
    const Value AV = Value::ofInt(wrapAdd(R[O.B].I, R[O.C].I));
    R[O.T0] = AV;
    if constexpr (Rec)
      emitVal(O.I0, O.Block, O.Index, AV);
    SPT_PAIR_STOP();
    ++In.InstrsExecuted;
    ++Steps;
    const int64_t Idx = R[O.T0].I;
    const Value V = R[O.A]; // Read after the add: sequential semantics.
    std::vector<Value> &Arr = (*In.Mem)[O.T1];
    uint64_t Addr;
    bool OOB;
    if (static_cast<uint64_t>(Idx) >= Arr.size()) {
      OOB = true;
      Addr = O.UImm;
      if (In.Hooks_)
        In.Hooks_->onStore(Addr, V);
    } else {
      OOB = false;
      Addr = O.UImm + static_cast<uint64_t>(Idx) * 8;
      const bool Consumed = In.Hooks_ && In.Hooks_->onStore(Addr, V);
      if (!Consumed)
        Arr[static_cast<size_t>(Idx)] = V;
    }
    if constexpr (Rec)
      emitMem(O.I1, O.Block, O.Index + 1, /*IsLoad=*/false, Addr, OOB, V);
    PC += 2;
  }
  SPT_NEXT();

#undef SPT_CASE
#undef SPT_NEXT
#undef SPT_VALOP
#undef SPT_PAIR_STOP
#undef SPT_CMPBR

ExitLoop:
  // Control leaves the dispatch loop with PC at the next op to execute (the
  // start call's Ret returns above instead); re-establish the Block/Index
  // view every out-of-loop consumer relies on.
  Frame &Fr = In.Stack.back();
  Fr.Block = Code[PC].Block;
  Fr.Index = Code[PC].Index;
  return Steps;
}

template <class Sink>
uint64_t Interpreter::runWith(Sink &S, uint64_t MaxSteps) {
  return DecodeEngine::run(*this, S, MaxSteps);
}

} // namespace spt

#endif // SPT_INTERP_DECODEENGINE_H

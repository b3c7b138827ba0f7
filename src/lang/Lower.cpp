//===- lang/Lower.cpp - SPTc AST to IR lowering ----------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Lower.h"

#include "ir/IR.h"
#include "ir/IRBuilder.h"
#include "support/Debug.h"

#include <map>
#include <utility>

using namespace spt;

namespace {

/// A typed value produced by expression lowering.
struct TypedReg {
  Reg R = NoReg;
  Type Ty = Type::Int;
};

/// Break/continue targets of the innermost enclosing loop.
struct LoopTargets {
  BasicBlock *BreakTarget = nullptr;
  BasicBlock *ContinueTarget = nullptr;
};

/// Per-program lowering state.
class Lowering {
public:
  explicit Lowering(const ProgramAst &Program) : Program(Program) {}

  LowerResult run();

private:
  // Diagnostics.
  void error(SrcLoc Loc, const std::string &Msg) {
    Errors.push_back(std::to_string(Loc.Line) + ":" +
                     std::to_string(Loc.Col) + ": " + Msg);
  }

  // Builtin externals, materialized on demand.
  uint32_t getExternal(const std::string &Name, Type RetTy,
                       std::vector<Type> ParamTys);

  // Scopes.
  struct VarInfo {
    Reg R = NoReg;
    Type Ty = Type::Int;
  };
  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }
  const VarInfo *findVar(const std::string &Name) const;
  bool declareVar(const std::string &Name, VarInfo Info, SrcLoc Loc);

  // Function lowering.
  void lowerFunction(const FuncAst &FA, Function *F);
  void lowerStmt(const Stmt &S);
  void lowerBlockBody(const Stmt &S);

  // Expression lowering.
  TypedReg lowerExpr(const Expr &E);
  TypedReg lowerBinary(const Expr &E);
  TypedReg lowerShortCircuit(const Expr &E);
  TypedReg lowerCondExpr(const Expr &E);
  TypedReg lowerCall(const Expr &E);
  /// Converts \p V to \p To (int->fp implicit); reports an error and
  /// returns a dummy when the conversion is narrowing.
  TypedReg convertTo(TypedReg V, Type To, SrcLoc Loc);

  /// Starts a fresh block when the current one is already terminated, so
  /// statements after return/break/continue land somewhere valid.
  void ensureOpenBlock(const char *Label);

  const ProgramAst &Program;
  std::unique_ptr<Module> M;
  std::vector<std::string> Errors;

  IRBuilder *B = nullptr;
  Function *CurFunc = nullptr;
  std::vector<std::map<std::string, VarInfo>> Scopes;
  std::vector<LoopTargets> LoopStack;
};

} // namespace

uint32_t Lowering::getExternal(const std::string &Name, Type RetTy,
                               std::vector<Type> ParamTys) {
  if (Function *F = M->findFunction(Name)) {
    assert(F->isExternal() && "builtin name clashes with user function");
    return M->indexOf(F);
  }
  Function *F = M->addFunction(Name, RetTy,
                               static_cast<unsigned>(ParamTys.size()),
                               /*External=*/true);
  F->ParamTypes = std::move(ParamTys);
  return M->indexOf(F);
}

const Lowering::VarInfo *Lowering::findVar(const std::string &Name) const {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
    auto Found = It->find(Name);
    if (Found != It->end())
      return &Found->second;
  }
  return nullptr;
}

bool Lowering::declareVar(const std::string &Name, VarInfo Info, SrcLoc Loc) {
  assert(!Scopes.empty() && "no scope to declare into");
  if (Scopes.back().count(Name)) {
    error(Loc, "redeclaration of '" + Name + "'");
    return false;
  }
  Scopes.back().emplace(Name, Info);
  return true;
}

void Lowering::ensureOpenBlock(const char *Label) {
  if (B->insertBlock()->hasTerminator()) {
    BasicBlock *BB = B->makeBlock(Label);
    // Unreachable continuation; still must be well formed.
    B->setInsertBlock(BB);
  }
}

TypedReg Lowering::convertTo(TypedReg V, Type To, SrcLoc Loc) {
  if (V.Ty == To)
    return V;
  if (V.Ty == Type::Int && To == Type::Fp) {
    Reg R = B->emit(Opcode::IntToFp, Type::Fp, {V.R});
    return TypedReg{R, Type::Fp};
  }
  if (V.Ty == Type::Fp && To == Type::Int) {
    error(Loc, "implicit fp->int conversion; use ftoi()");
    Reg R = B->emit(Opcode::FpToInt, Type::Int, {V.R});
    return TypedReg{R, Type::Int};
  }
  error(Loc, "cannot convert void value");
  return TypedReg{B->constInt(0), To};
}

TypedReg Lowering::lowerExpr(const Expr &E) {
  switch (E.Kind) {
  case ExprKind::IntLit:
    return TypedReg{B->constInt(E.IntValue), Type::Int};
  case ExprKind::FpLit:
    return TypedReg{B->constFp(E.FpValue), Type::Fp};
  case ExprKind::Var: {
    const VarInfo *V = findVar(E.Name);
    if (!V) {
      error(E.Loc, "use of undeclared variable '" + E.Name + "'");
      return TypedReg{B->constInt(0), Type::Int};
    }
    return TypedReg{V->R, V->Ty};
  }
  case ExprKind::Index: {
    const Function *Probe = nullptr;
    (void)Probe;
    // Arrays are module-level only.
    bool Found = false;
    uint32_t ArrayId = 0;
    for (size_t I = 0; I != M->numArrays(); ++I)
      if (M->array(static_cast<uint32_t>(I)).Name == E.Name) {
        Found = true;
        ArrayId = static_cast<uint32_t>(I);
        break;
      }
    if (!Found) {
      error(E.Loc, "use of undeclared array '" + E.Name + "'");
      return TypedReg{B->constInt(0), Type::Int};
    }
    TypedReg Sub = lowerExpr(*E.Lhs);
    if (Sub.Ty != Type::Int) {
      error(E.Loc, "array subscript must be int");
      Sub = TypedReg{B->constInt(0), Type::Int};
    }
    const Type ElemTy = M->array(ArrayId).ElemTy;
    Reg R = B->load(ElemTy, ArrayId, Sub.R);
    return TypedReg{R, ElemTy};
  }
  case ExprKind::Unary: {
    TypedReg V = lowerExpr(*E.Lhs);
    switch (E.UOp) {
    case UnOp::Neg:
      if (V.Ty == Type::Fp)
        return TypedReg{B->emit(Opcode::FNeg, Type::Fp, {V.R}), Type::Fp};
      return TypedReg{B->emit(Opcode::Neg, Type::Int, {V.R}), Type::Int};
    case UnOp::LogNot: {
      Reg Zero =
          V.Ty == Type::Fp ? B->constFp(0.0) : B->constInt(0);
      Opcode Cmp = V.Ty == Type::Fp ? Opcode::FCmpEq : Opcode::CmpEq;
      return TypedReg{B->emit(Cmp, Type::Int, {V.R, Zero}), Type::Int};
    }
    case UnOp::BitNot:
      if (V.Ty != Type::Int)
        error(E.Loc, "'~' requires an int operand");
      return TypedReg{B->emit(Opcode::Not, Type::Int, {V.R}), Type::Int};
    }
    spt_unreachable("unknown unary operator");
  }
  case ExprKind::Binary:
    if (E.BOp == BinOp::LAnd || E.BOp == BinOp::LOr)
      return lowerShortCircuit(E);
    return lowerBinary(E);
  case ExprKind::Cond:
    return lowerCondExpr(E);
  case ExprKind::Call:
    return lowerCall(E);
  }
  spt_unreachable("unknown expression kind");
}

TypedReg Lowering::lowerBinary(const Expr &E) {
  TypedReg L = lowerExpr(*E.Lhs);
  TypedReg R = lowerExpr(*E.Rhs);

  const bool IntOnly = E.BOp == BinOp::And || E.BOp == BinOp::Or ||
                       E.BOp == BinOp::Xor || E.BOp == BinOp::Shl ||
                       E.BOp == BinOp::Shr || E.BOp == BinOp::Rem;
  if (IntOnly) {
    if (L.Ty != Type::Int || R.Ty != Type::Int) {
      error(E.Loc, "operator requires int operands");
      return TypedReg{B->constInt(0), Type::Int};
    }
  }

  // Unify numeric types: int op fp promotes to fp.
  Type OpTy = Type::Int;
  if (L.Ty == Type::Fp || R.Ty == Type::Fp) {
    OpTy = Type::Fp;
    L = convertTo(L, Type::Fp, E.Loc);
    R = convertTo(R, Type::Fp, E.Loc);
  }

  struct OpPair {
    Opcode IntOp;
    Opcode FpOp;
    bool IsCompare;
  };
  auto pick = [&](BinOp Op) -> OpPair {
    switch (Op) {
    case BinOp::Add:
      return {Opcode::Add, Opcode::FAdd, false};
    case BinOp::Sub:
      return {Opcode::Sub, Opcode::FSub, false};
    case BinOp::Mul:
      return {Opcode::Mul, Opcode::FMul, false};
    case BinOp::Div:
      return {Opcode::Div, Opcode::FDiv, false};
    case BinOp::Rem:
      return {Opcode::Rem, Opcode::Rem, false};
    case BinOp::And:
      return {Opcode::And, Opcode::And, false};
    case BinOp::Or:
      return {Opcode::Or, Opcode::Or, false};
    case BinOp::Xor:
      return {Opcode::Xor, Opcode::Xor, false};
    case BinOp::Shl:
      return {Opcode::Shl, Opcode::Shl, false};
    case BinOp::Shr:
      return {Opcode::Shr, Opcode::Shr, false};
    case BinOp::Eq:
      return {Opcode::CmpEq, Opcode::FCmpEq, true};
    case BinOp::Ne:
      return {Opcode::CmpNe, Opcode::FCmpNe, true};
    case BinOp::Lt:
      return {Opcode::CmpLt, Opcode::FCmpLt, true};
    case BinOp::Le:
      return {Opcode::CmpLe, Opcode::FCmpLe, true};
    case BinOp::Gt:
      return {Opcode::CmpGt, Opcode::FCmpGt, true};
    case BinOp::Ge:
      return {Opcode::CmpGe, Opcode::FCmpGe, true};
    case BinOp::LAnd:
    case BinOp::LOr:
      break;
    }
    spt_unreachable("short-circuit ops handled elsewhere");
  };

  const OpPair P = pick(E.BOp);
  const Opcode Op = OpTy == Type::Fp ? P.FpOp : P.IntOp;
  const Type ResTy = P.IsCompare ? Type::Int : OpTy;
  return TypedReg{B->emit(Op, ResTy, {L.R, R.R}), ResTy};
}

TypedReg Lowering::lowerShortCircuit(const Expr &E) {
  // a && b  ==>  a ? (b != 0) : 0     a || b  ==>  a ? 1 : (b != 0)
  const bool IsAnd = E.BOp == BinOp::LAnd;
  Reg Result = CurFunc->newReg();

  TypedReg L = lowerExpr(*E.Lhs);
  BasicBlock *EvalRhs = B->makeBlock(IsAnd ? "land.rhs" : "lor.rhs");
  BasicBlock *Short = B->makeBlock(IsAnd ? "land.false" : "lor.true");
  BasicBlock *Done = B->makeBlock(IsAnd ? "land.done" : "lor.done");

  if (IsAnd)
    B->br(L.R, EvalRhs, Short);
  else
    B->br(L.R, Short, EvalRhs);

  B->setInsertBlock(EvalRhs);
  TypedReg R = lowerExpr(*E.Rhs);
  Reg Zero = R.Ty == Type::Fp ? B->constFp(0.0) : B->constInt(0);
  Opcode Cmp = R.Ty == Type::Fp ? Opcode::FCmpNe : Opcode::CmpNe;
  Reg Bool = B->emit(Cmp, Type::Int, {R.R, Zero});
  B->copyTo(Result, Type::Int, Bool);
  B->jmp(Done);

  B->setInsertBlock(Short);
  Reg Const = B->constInt(IsAnd ? 0 : 1);
  B->copyTo(Result, Type::Int, Const);
  B->jmp(Done);

  B->setInsertBlock(Done);
  return TypedReg{Result, Type::Int};
}

TypedReg Lowering::lowerCondExpr(const Expr &E) {
  TypedReg C = lowerExpr(*E.Lhs);
  BasicBlock *ThenBB = B->makeBlock("cond.then");
  BasicBlock *ElseBB = B->makeBlock("cond.else");
  BasicBlock *Done = B->makeBlock("cond.done");
  B->br(C.R, ThenBB, ElseBB);

  // Lower the then-value first to learn the result type; the else value is
  // converted to match (or both are widened to fp). A value with its own
  // control flow (a nested conditional, && or ||) ends in a later block
  // than it began in; each copy goes where its value ends.
  B->setInsertBlock(ThenBB);
  TypedReg TV = lowerExpr(*E.Rhs);
  BasicBlock *ThenEnd = B->insertBlock();
  B->setInsertBlock(ElseBB);
  TypedReg FV = lowerExpr(*E.Aux);
  BasicBlock *ElseEnd = B->insertBlock();

  Type ResTy =
      (TV.Ty == Type::Fp || FV.Ty == Type::Fp) ? Type::Fp : Type::Int;
  Reg Result = CurFunc->newReg();

  B->setInsertBlock(ThenEnd);
  TypedReg TVC = convertTo(TV, ResTy, E.Loc);
  B->copyTo(Result, ResTy, TVC.R);
  B->jmp(Done);

  B->setInsertBlock(ElseEnd);
  TypedReg FVC = convertTo(FV, ResTy, E.Loc);
  B->copyTo(Result, ResTy, FVC.R);
  B->jmp(Done);

  B->setInsertBlock(Done);
  return TypedReg{Result, ResTy};
}

TypedReg Lowering::lowerCall(const Expr &E) {
  // Unary opcode builtins.
  struct UnaryBuiltin {
    const char *Name;
    Opcode Op;
    Type ArgTy;
    Type RetTy;
  };
  static const UnaryBuiltin UnaryBuiltins[] = {
      {"fabs", Opcode::FAbs, Type::Fp, Type::Fp},
      {"iabs", Opcode::Abs, Type::Int, Type::Int},
      {"itof", Opcode::IntToFp, Type::Int, Type::Fp},
      {"ftoi", Opcode::FpToInt, Type::Fp, Type::Int},
  };
  for (const UnaryBuiltin &UB : UnaryBuiltins) {
    if (E.Name != UB.Name)
      continue;
    if (E.Args.size() != 1) {
      error(E.Loc, std::string(UB.Name) + " takes one argument");
      return TypedReg{B->constInt(0), UB.RetTy};
    }
    TypedReg V = convertTo(lowerExpr(*E.Args[0]), UB.ArgTy, E.Loc);
    return TypedReg{B->emit(UB.Op, UB.RetTy, {V.R}), UB.RetTy};
  }

  // Binary opcode builtins.
  struct BinaryBuiltin {
    const char *Name;
    Opcode Op;
    Type Ty;
  };
  static const BinaryBuiltin BinaryBuiltins[] = {
      {"imin", Opcode::Min, Type::Int},  {"imax", Opcode::Max, Type::Int},
      {"fminv", Opcode::FMin, Type::Fp}, {"fmaxv", Opcode::FMax, Type::Fp},
  };
  for (const BinaryBuiltin &BB : BinaryBuiltins) {
    if (E.Name != BB.Name)
      continue;
    if (E.Args.size() != 2) {
      error(E.Loc, std::string(BB.Name) + " takes two arguments");
      return TypedReg{B->constInt(0), BB.Ty};
    }
    TypedReg A = convertTo(lowerExpr(*E.Args[0]), BB.Ty, E.Loc);
    TypedReg C = convertTo(lowerExpr(*E.Args[1]), BB.Ty, E.Loc);
    return TypedReg{B->emit(BB.Op, BB.Ty, {A.R, C.R}), BB.Ty};
  }

  // External runtime builtins.
  struct External {
    const char *Name;
    Type RetTy;
    std::vector<Type> Params;
  };
  static const External Externals[] = {
      {"sqrt", Type::Fp, {Type::Fp}},
      {"log", Type::Fp, {Type::Fp}},
      {"exp", Type::Fp, {Type::Fp}},
      {"rnd", Type::Int, {Type::Int}},
      {"print_int", Type::Void, {Type::Int}},
      {"print_fp", Type::Void, {Type::Fp}},
  };

  Type RetTy = Type::Void;
  uint32_t CalleeIndex = 0;
  const std::vector<Type> *ParamTys = nullptr;
  std::vector<Type> UserParamTys;

  bool Resolved = false;
  for (const External &Ext : Externals) {
    if (E.Name != Ext.Name)
      continue;
    CalleeIndex = getExternal(Ext.Name, Ext.RetTy, Ext.Params);
    RetTy = Ext.RetTy;
    ParamTys = &M->function(CalleeIndex)->ParamTypes;
    Resolved = true;
    break;
  }

  if (!Resolved) {
    Function *Callee = M->findFunction(E.Name);
    if (!Callee || Callee->isExternal()) {
      if (!Callee) {
        error(E.Loc, "call to undeclared function '" + E.Name + "'");
        return TypedReg{B->constInt(0), Type::Int};
      }
    }
    CalleeIndex = M->indexOf(Callee);
    RetTy = Callee->returnType();
    UserParamTys = Callee->ParamTypes;
    ParamTys = &UserParamTys;
  }

  if (E.Args.size() != ParamTys->size()) {
    error(E.Loc, "call to '" + E.Name + "' expects " +
                     std::to_string(ParamTys->size()) + " arguments, got " +
                     std::to_string(E.Args.size()));
    return TypedReg{B->constInt(0), RetTy == Type::Void ? Type::Int : RetTy};
  }

  std::vector<Reg> Args;
  for (size_t I = 0; I != E.Args.size(); ++I) {
    TypedReg V = convertTo(lowerExpr(*E.Args[I]), (*ParamTys)[I], E.Loc);
    Args.push_back(V.R);
  }
  Reg R = B->call(RetTy, CalleeIndex, std::move(Args));
  return TypedReg{R, RetTy == Type::Void ? Type::Int : RetTy};
}

void Lowering::lowerBlockBody(const Stmt &S) {
  assert(S.Kind == StmtKind::Block && "expected a block");
  pushScope();
  for (const StmtPtr &Child : S.Body)
    lowerStmt(*Child);
  popScope();
}

void Lowering::lowerStmt(const Stmt &S) {
  ensureOpenBlock("unreachable");
  switch (S.Kind) {
  case StmtKind::Block:
    lowerBlockBody(S);
    return;

  case StmtKind::Decl: {
    Reg R = CurFunc->newReg();
    if (S.Value) {
      TypedReg V = convertTo(lowerExpr(*S.Value), S.DeclTy, S.Loc);
      B->copyTo(R, S.DeclTy, V.R);
    } else {
      // Deterministic zero initialization.
      Reg Z = S.DeclTy == Type::Fp ? B->constFp(0.0) : B->constInt(0);
      B->copyTo(R, S.DeclTy, Z);
    }
    declareVar(S.Name, VarInfo{R, S.DeclTy}, S.Loc);
    return;
  }

  case StmtKind::Assign: {
    const Expr &T = *S.Target;
    if (T.Kind == ExprKind::Var) {
      const VarInfo *V = findVar(T.Name);
      if (!V) {
        error(T.Loc, "assignment to undeclared variable '" + T.Name + "'");
        lowerExpr(*S.Value);
        return;
      }
      TypedReg Val = convertTo(lowerExpr(*S.Value), V->Ty, S.Loc);
      B->copyTo(V->R, V->Ty, Val.R);
      return;
    }
    assert(T.Kind == ExprKind::Index && "assign target must be var or index");
    bool Found = false;
    uint32_t ArrayId = 0;
    for (size_t I = 0; I != M->numArrays(); ++I)
      if (M->array(static_cast<uint32_t>(I)).Name == T.Name) {
        Found = true;
        ArrayId = static_cast<uint32_t>(I);
        break;
      }
    if (!Found) {
      error(T.Loc, "assignment to undeclared array '" + T.Name + "'");
      lowerExpr(*S.Value);
      return;
    }
    TypedReg Sub = lowerExpr(*T.Lhs);
    if (Sub.Ty != Type::Int) {
      error(T.Loc, "array subscript must be int");
      Sub = TypedReg{B->constInt(0), Type::Int};
    }
    TypedReg Val =
        convertTo(lowerExpr(*S.Value), M->array(ArrayId).ElemTy, S.Loc);
    B->store(ArrayId, Sub.R, Val.R);
    return;
  }

  case StmtKind::ExprEval:
    lowerExpr(*S.Value);
    return;

  case StmtKind::If: {
    TypedReg C = lowerExpr(*S.Value);
    BasicBlock *ThenBB = B->makeBlock("if.then");
    BasicBlock *ElseBB = S.Else ? B->makeBlock("if.else") : nullptr;
    BasicBlock *Done = B->makeBlock("if.done");
    B->br(C.R, ThenBB, ElseBB ? ElseBB : Done);

    B->setInsertBlock(ThenBB);
    lowerStmt(*S.Then);
    if (!B->insertBlock()->hasTerminator())
      B->jmp(Done);

    if (ElseBB) {
      B->setInsertBlock(ElseBB);
      lowerStmt(*S.Else);
      if (!B->insertBlock()->hasTerminator())
        B->jmp(Done);
    }
    B->setInsertBlock(Done);
    return;
  }

  case StmtKind::While: {
    BasicBlock *Header = B->makeBlock("while.header");
    BasicBlock *Body = B->makeBlock("while.body");
    BasicBlock *Exit = B->makeBlock("while.exit");
    B->jmp(Header);

    B->setInsertBlock(Header);
    TypedReg C = lowerExpr(*S.Value);
    B->br(C.R, Body, Exit);

    LoopStack.push_back(LoopTargets{Exit, Header});
    B->setInsertBlock(Body);
    lowerStmt(*S.Then);
    if (!B->insertBlock()->hasTerminator())
      B->jmp(Header);
    LoopStack.pop_back();

    B->setInsertBlock(Exit);
    return;
  }

  case StmtKind::DoWhile: {
    BasicBlock *Body = B->makeBlock("do.body");
    BasicBlock *CondBB = B->makeBlock("do.cond");
    BasicBlock *Exit = B->makeBlock("do.exit");
    B->jmp(Body);

    LoopStack.push_back(LoopTargets{Exit, CondBB});
    B->setInsertBlock(Body);
    lowerStmt(*S.Then);
    if (!B->insertBlock()->hasTerminator())
      B->jmp(CondBB);
    LoopStack.pop_back();

    B->setInsertBlock(CondBB);
    TypedReg C = lowerExpr(*S.Value);
    B->br(C.R, Body, Exit);

    B->setInsertBlock(Exit);
    return;
  }

  case StmtKind::For: {
    pushScope(); // For-init declarations scope over the loop.
    if (S.Init)
      lowerStmt(*S.Init);

    BasicBlock *Header = B->makeBlock("for.header");
    BasicBlock *Body = B->makeBlock("for.body");
    BasicBlock *StepBB = B->makeBlock("for.step");
    BasicBlock *Exit = B->makeBlock("for.exit");
    B->jmp(Header);

    B->setInsertBlock(Header);
    if (S.Value) {
      TypedReg C = lowerExpr(*S.Value);
      B->br(C.R, Body, Exit);
    } else {
      Reg True = B->constInt(1);
      B->br(True, Body, Exit);
    }

    LoopStack.push_back(LoopTargets{Exit, StepBB});
    B->setInsertBlock(Body);
    lowerStmt(*S.Then);
    if (!B->insertBlock()->hasTerminator())
      B->jmp(StepBB);
    LoopStack.pop_back();

    B->setInsertBlock(StepBB);
    if (S.Step)
      lowerStmt(*S.Step);
    if (!B->insertBlock()->hasTerminator())
      B->jmp(Header);

    B->setInsertBlock(Exit);
    popScope();
    return;
  }

  case StmtKind::Return: {
    if (CurFunc->returnType() == Type::Void) {
      if (S.Value)
        error(S.Loc, "void function cannot return a value");
      B->ret();
      return;
    }
    if (!S.Value) {
      error(S.Loc, "non-void function must return a value");
      Reg Z = CurFunc->returnType() == Type::Fp ? B->constFp(0.0)
                                                : B->constInt(0);
      B->ret(Z);
      return;
    }
    TypedReg V =
        convertTo(lowerExpr(*S.Value), CurFunc->returnType(), S.Loc);
    B->ret(V.R);
    return;
  }

  case StmtKind::Break: {
    if (LoopStack.empty()) {
      error(S.Loc, "'break' outside of a loop");
      return;
    }
    B->jmp(LoopStack.back().BreakTarget);
    return;
  }

  case StmtKind::Continue: {
    if (LoopStack.empty()) {
      error(S.Loc, "'continue' outside of a loop");
      return;
    }
    B->jmp(LoopStack.back().ContinueTarget);
    return;
  }
  }
  spt_unreachable("unknown statement kind");
}

void Lowering::lowerFunction(const FuncAst &FA, Function *F) {
  CurFunc = F;
  IRBuilder Builder(F);
  B = &Builder;

  BasicBlock *Entry = F->addBlock("entry");
  Builder.setInsertBlock(Entry);

  Scopes.clear();
  pushScope();
  for (unsigned I = 0; I != FA.Params.size(); ++I)
    declareVar(FA.Params[I].Name,
               VarInfo{static_cast<Reg>(I), FA.Params[I].Ty}, FA.Loc);

  lowerBlockBody(*FA.Body);

  // Implicit return at the end of the function.
  if (!Builder.insertBlock()->hasTerminator()) {
    if (F->returnType() == Type::Void)
      Builder.ret();
    else {
      Reg Z = F->returnType() == Type::Fp ? Builder.constFp(0.0)
                                          : Builder.constInt(0);
      Builder.ret(Z);
    }
  }
  popScope();
  B = nullptr;
  CurFunc = nullptr;
}

LowerResult Lowering::run() {
  M = std::make_unique<Module>();

  // Declare arrays first.
  for (const ArrayAst &A : Program.Arrays)
    M->addArray(A.Name, A.ElemTy, A.Size);

  // Declare all functions (forward references allowed), then lower bodies.
  for (const auto &FA : Program.Funcs) {
    if (M->findFunction(FA->Name)) {
      error(FA->Loc, "redefinition of function '" + FA->Name + "'");
      continue;
    }
    Function *F = M->addFunction(FA->Name, FA->RetTy,
                                 static_cast<unsigned>(FA->Params.size()));
    for (const ParamAst &P : FA->Params)
      F->ParamTypes.push_back(P.Ty);
  }
  for (const auto &FA : Program.Funcs) {
    Function *F = M->findFunction(FA->Name);
    if (F && !F->isExternal() && F->numBlocks() == 0)
      lowerFunction(*FA, F);
  }

  LowerResult Result;
  Result.M = std::move(M);
  Result.Errors = std::move(Errors);
  return Result;
}

LowerResult spt::lowerProgram(const ProgramAst &Program) {
  Lowering L(Program);
  return L.run();
}

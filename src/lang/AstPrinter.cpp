//===- lang/AstPrinter.cpp - SPTc source from an AST -----------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/AstPrinter.h"

#include <cassert>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>

using namespace spt;

namespace {

const char *binOpToken(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::Div:
    return "/";
  case BinOp::Rem:
    return "%";
  case BinOp::And:
    return "&";
  case BinOp::Or:
    return "|";
  case BinOp::Xor:
    return "^";
  case BinOp::Shl:
    return "<<";
  case BinOp::Shr:
    return ">>";
  case BinOp::Eq:
    return "==";
  case BinOp::Ne:
    return "!=";
  case BinOp::Lt:
    return "<";
  case BinOp::Le:
    return "<=";
  case BinOp::Gt:
    return ">";
  case BinOp::Ge:
    return ">=";
  case BinOp::LAnd:
    return "&&";
  case BinOp::LOr:
    return "||";
  }
  return "+";
}

const char *typeToken(Type Ty) {
  switch (Ty) {
  case Type::Int:
    return "int";
  case Type::Fp:
    return "fp";
  case Type::Void:
    return "void";
  }
  return "int";
}

void appendIndent(std::string &Out, unsigned Indent) {
  Out.append(2 * static_cast<size_t>(Indent), ' ');
}

template <typename Int> void appendInt(std::string &Out, Int V) {
  char Buf[24];
  const std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  Out.append(Buf, R.ptr);
}

/// Floating literal with round-trip precision; guarantees the spelling
/// lexes as an FpLiteral (a '.' or exponent is always present).
void appendFpLit(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
  if (!std::strpbrk(Buf, ".eE"))
    Out += ".0";
}

void printExpr(const Expr &E, std::string &Out) {
  switch (E.Kind) {
  case ExprKind::IntLit:
    if (E.IntValue >= 0) {
      appendInt(Out, E.IntValue);
      return;
    }
    // The parser only produces non-negative literals; mutations can go
    // negative. INT64_MIN has no printable negation, so clamp it.
    Out += "(0 - ";
    appendInt(Out, E.IntValue == INT64_MIN ? INT64_MAX : -E.IntValue);
    Out += ')';
    return;
  case ExprKind::FpLit:
    if (E.FpValue < 0.0) {
      Out += "(0.0 - ";
      appendFpLit(Out, -E.FpValue);
      Out += ')';
      return;
    }
    appendFpLit(Out, E.FpValue);
    return;
  case ExprKind::Var:
    Out += E.Name;
    return;
  case ExprKind::Index:
    Out += E.Name;
    Out += '[';
    printExpr(*E.Lhs, Out);
    Out += ']';
    return;
  case ExprKind::Unary:
    Out += E.UOp == UnOp::Neg      ? "(- "
           : E.UOp == UnOp::LogNot ? "(!"
                                   : "(~";
    printExpr(*E.Lhs, Out);
    Out += ')';
    return;
  case ExprKind::Binary:
    Out += '(';
    printExpr(*E.Lhs, Out);
    Out += ' ';
    Out += binOpToken(E.BOp);
    Out += ' ';
    printExpr(*E.Rhs, Out);
    Out += ')';
    return;
  case ExprKind::Cond:
    Out += '(';
    printExpr(*E.Lhs, Out);
    Out += " ? ";
    printExpr(*E.Rhs, Out);
    Out += " : ";
    printExpr(*E.Aux, Out);
    Out += ')';
    return;
  case ExprKind::Call:
    Out += E.Name;
    Out += '(';
    for (size_t I = 0; I != E.Args.size(); ++I) {
      if (I)
        Out += ", ";
      printExpr(*E.Args[I], Out);
    }
    Out += ')';
    return;
  }
  Out += '0';
}

void printStmt(const Stmt &S, unsigned Indent, std::string &Out);

/// "type name = value;" without indentation or newline.
void printDecl(const Stmt &S, std::string &Out) {
  Out += typeToken(S.DeclTy);
  Out += ' ';
  Out += S.Name;
  if (S.Value) {
    Out += " = ";
    printExpr(*S.Value, Out);
  }
  Out += ';';
}

/// "target = value" or a bare call, without ';'.
void printSimple(const Stmt &S, std::string &Out) {
  assert(S.Kind == StmtKind::Assign || S.Kind == StmtKind::ExprEval);
  if (S.Kind == StmtKind::Assign) {
    printExpr(*S.Target, Out);
    Out += " = ";
  }
  printExpr(*S.Value, Out);
}

/// Bodies of if/else and loops always print as braced blocks: canonical,
/// and immune to dangling-else reassociation.
void printBody(const Stmt *Body, unsigned Indent, std::string &Out) {
  Out += " {\n";
  if (Body) {
    if (Body->Kind == StmtKind::Block) {
      for (const StmtPtr &Child : Body->Body)
        if (Child)
          printStmt(*Child, Indent + 1, Out);
    } else {
      printStmt(*Body, Indent + 1, Out);
    }
  }
  appendIndent(Out, Indent);
  Out += '}';
}

void printStmt(const Stmt &S, unsigned Indent, std::string &Out) {
  appendIndent(Out, Indent);
  switch (S.Kind) {
  case StmtKind::Block:
    Out += "{\n";
    for (const StmtPtr &Child : S.Body)
      if (Child)
        printStmt(*Child, Indent + 1, Out);
    appendIndent(Out, Indent);
    Out += "}\n";
    return;
  case StmtKind::Decl:
    printDecl(S, Out);
    Out += '\n';
    return;
  case StmtKind::Assign:
  case StmtKind::ExprEval:
    printSimple(S, Out);
    Out += ";\n";
    return;
  case StmtKind::If:
    Out += "if (";
    printExpr(*S.Value, Out);
    Out += ')';
    printBody(S.Then.get(), Indent, Out);
    if (S.Else) {
      Out += " else";
      printBody(S.Else.get(), Indent, Out);
    }
    Out += '\n';
    return;
  case StmtKind::While:
    Out += "while (";
    printExpr(*S.Value, Out);
    Out += ')';
    printBody(S.Then.get(), Indent, Out);
    Out += '\n';
    return;
  case StmtKind::DoWhile:
    Out += "do";
    printBody(S.Then.get(), Indent, Out);
    Out += " while (";
    printExpr(*S.Value, Out);
    Out += ");\n";
    return;
  case StmtKind::For:
    // A for-header Decl prints with its ';' (mirroring the parser, which
    // consumes it inside parseDecl), a simple statement gets one here.
    Out += "for (";
    if (!S.Init) {
      Out += ';';
    } else if (S.Init->Kind == StmtKind::Decl) {
      printDecl(*S.Init, Out);
    } else {
      printSimple(*S.Init, Out);
      Out += ';';
    }
    Out += ' ';
    if (S.Value)
      printExpr(*S.Value, Out);
    Out += "; ";
    if (S.Step)
      printSimple(*S.Step, Out);
    Out += ')';
    printBody(S.Then.get(), Indent, Out);
    Out += '\n';
    return;
  case StmtKind::Return:
    Out += "return";
    if (S.Value) {
      Out += ' ';
      printExpr(*S.Value, Out);
    }
    Out += ";\n";
    return;
  case StmtKind::Break:
    Out += "break;\n";
    return;
  case StmtKind::Continue:
    Out += "continue;\n";
    return;
  }
}

} // namespace

std::string spt::exprToSource(const Expr &E) {
  std::string Out;
  printExpr(E, Out);
  return Out;
}

std::string spt::stmtToSource(const Stmt &S, unsigned Indent) {
  std::string Out;
  printStmt(S, Indent, Out);
  return Out;
}

std::string spt::programToSource(const ProgramAst &Program) {
  std::string Out;
  for (const ArrayAst &A : Program.Arrays) {
    Out += typeToken(A.ElemTy);
    Out += ' ';
    Out += A.Name;
    Out += '[';
    appendInt(Out, A.Size);
    Out += "];\n";
  }
  if (!Program.Arrays.empty())
    Out += '\n';
  for (const std::unique_ptr<FuncAst> &F : Program.Funcs) {
    Out += typeToken(F->RetTy);
    Out += ' ';
    Out += F->Name;
    Out += '(';
    for (size_t I = 0; I != F->Params.size(); ++I) {
      if (I)
        Out += ", ";
      Out += typeToken(F->Params[I].Ty);
      Out += ' ';
      Out += F->Params[I].Name;
    }
    Out += ')';
    printBody(F->Body.get(), 0, Out);
    Out += "\n\n";
  }
  return Out;
}

ExprPtr spt::cloneExpr(const Expr &E) {
  auto C = std::make_unique<Expr>(E.Kind, E.Loc);
  C->IntValue = E.IntValue;
  C->FpValue = E.FpValue;
  C->Name = E.Name;
  C->UOp = E.UOp;
  C->BOp = E.BOp;
  if (E.Lhs)
    C->Lhs = cloneExpr(*E.Lhs);
  if (E.Rhs)
    C->Rhs = cloneExpr(*E.Rhs);
  if (E.Aux)
    C->Aux = cloneExpr(*E.Aux);
  for (const ExprPtr &A : E.Args)
    C->Args.push_back(cloneExpr(*A));
  return C;
}

StmtPtr spt::cloneStmt(const Stmt &S) {
  auto C = std::make_unique<Stmt>(S.Kind, S.Loc);
  C->DeclTy = S.DeclTy;
  C->Name = S.Name;
  if (S.Target)
    C->Target = cloneExpr(*S.Target);
  if (S.Value)
    C->Value = cloneExpr(*S.Value);
  if (S.Then)
    C->Then = cloneStmt(*S.Then);
  if (S.Else)
    C->Else = cloneStmt(*S.Else);
  if (S.Init)
    C->Init = cloneStmt(*S.Init);
  if (S.Step)
    C->Step = cloneStmt(*S.Step);
  for (const StmtPtr &Child : S.Body)
    C->Body.push_back(Child ? cloneStmt(*Child) : nullptr);
  return C;
}

std::unique_ptr<FuncAst> spt::cloneFunc(const FuncAst &F) {
  auto C = std::make_unique<FuncAst>();
  C->RetTy = F.RetTy;
  C->Name = F.Name;
  C->Params = F.Params;
  C->Loc = F.Loc;
  if (F.Body)
    C->Body = cloneStmt(*F.Body);
  return C;
}

ProgramAst spt::cloneProgram(const ProgramAst &Program) {
  ProgramAst C;
  C.Arrays = Program.Arrays;
  for (const std::unique_ptr<FuncAst> &F : Program.Funcs)
    C.Funcs.push_back(cloneFunc(*F));
  return C;
}

unsigned spt::countStatements(const Stmt &S) {
  unsigned N = S.Kind == StmtKind::Block ? 0 : 1;
  for (const StmtPtr &Child : S.Body)
    if (Child)
      N += countStatements(*Child);
  if (S.Then)
    N += countStatements(*S.Then);
  if (S.Else)
    N += countStatements(*S.Else);
  // For-header Init/Step clauses are part of the loop statement, not
  // extra statements.
  return N;
}

unsigned spt::countStatements(const ProgramAst &Program) {
  unsigned N = 0;
  for (const std::unique_ptr<FuncAst> &F : Program.Funcs)
    if (F->Body)
      N += countStatements(*F->Body);
  return N;
}

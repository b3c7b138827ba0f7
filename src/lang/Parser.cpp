//===- lang/Parser.cpp - SPTc recursive-descent parser --------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "support/Debug.h"

#include <algorithm>

using namespace spt;

Parser::Parser(std::string Source) : Lex(std::move(Source)) {}

namespace {

std::string located(unsigned Line, unsigned Col, const std::string &Msg) {
  return std::to_string(Line) + ":" + std::to_string(Col) + ": " + Msg;
}

} // namespace

void Parser::fill() {
  Token &T = Ring[(Head + Buffered) & 1];
  ++Buffered;
  if (Ended) {
    T.Kind = TokKind::Eof;
    T.Text.clear();
    T.IntValue = 0;
    T.FpValue = 0.0;
    T.Line = EndLoc.Line;
    T.Col = EndLoc.Col;
    return;
  }
  Lex.next(T);
  if (T.Kind == TokKind::Error) {
    // A lexical error ends the input at the bad character.
    Errors.push_back(located(T.Line, T.Col, T.Text));
    T.Kind = TokKind::Eof;
    T.Text.clear();
  }
  if (T.Kind == TokKind::Eof) {
    Ended = true;
    EndLoc = SrcLoc{T.Line, T.Col};
  }
}

std::string Parser::takeText() {
  peek();
  std::string Text = std::move(Ring[Head].Text);
  drop();
  return Text;
}

bool Parser::expect(TokKind Kind, const char *Context) {
  if (accept(Kind))
    return true;
  error(std::string("expected ") + tokKindName(Kind) + " " + Context +
        ", found " + tokKindName(peek().Kind));
  return false;
}

SrcLoc Parser::loc() {
  const Token &T = peek();
  return SrcLoc{T.Line, T.Col};
}

void Parser::error(const std::string &Msg) {
  const Token &T = peek();
  Errors.push_back(located(T.Line, T.Col, Msg));
}

void Parser::exceedLimit(const std::string &Msg) {
  if (LimitHit)
    return;
  LimitHit = true;
  error(Msg);
  EndLoc = loc();
  Ended = true;
  Buffered = 0;
}

void Parser::syncToStatementEnd() {
  while (!check(TokKind::Eof) && !check(TokKind::Semicolon) &&
         !check(TokKind::RBrace))
    drop();
  accept(TokKind::Semicolon);
}

bool Parser::parseType(Type &Out) {
  if (accept(TokKind::KwInt)) {
    Out = Type::Int;
    return true;
  }
  if (accept(TokKind::KwFp)) {
    Out = Type::Fp;
    return true;
  }
  return false;
}

ProgramAst Parser::parseProgram() {
  ProgramAst Program;
  while (!check(TokKind::Eof) && Errors.size() < 50)
    parseTopLevel(Program);
  return Program;
}

void Parser::parseTopLevel(ProgramAst &Program) {
  const SrcLoc Loc = loc();

  Type Ty = Type::Void;
  bool IsVoid = accept(TokKind::KwVoid);
  if (!IsVoid && !parseType(Ty)) {
    error("expected 'int', 'fp' or 'void' at top level, found " +
          std::string(tokKindName(peek().Kind)));
    drop();
    return;
  }

  if (!check(TokKind::Identifier)) {
    error("expected name after type at top level");
    syncToStatementEnd();
    return;
  }
  std::string Name = takeText();

  // Array declaration: type name [ size ] ;
  if (!IsVoid && check(TokKind::LBracket)) {
    drop();
    if (!check(TokKind::IntLiteral)) {
      error("expected array size literal");
      syncToStatementEnd();
      return;
    }
    const int64_t Size = peek().IntValue;
    drop();
    if (Size <= 0)
      error("array size must be positive");
    expect(TokKind::RBracket, "after array size");
    expect(TokKind::Semicolon, "after array declaration");
    Program.Arrays.push_back(
        ArrayAst{Ty, std::move(Name), static_cast<uint64_t>(Size), Loc});
    return;
  }

  // Otherwise a function definition.
  if (auto F = parseFunction(IsVoid ? Type::Void : Ty, std::move(Name), Loc))
    Program.Funcs.push_back(std::move(F));
}

std::unique_ptr<FuncAst> Parser::parseFunction(Type RetTy, std::string Name,
                                               SrcLoc Loc) {
  auto F = std::make_unique<FuncAst>();
  F->RetTy = RetTy;
  F->Name = std::move(Name);
  F->Loc = Loc;

  if (!expect(TokKind::LParen, "to begin parameter list"))
    return nullptr;
  if (!check(TokKind::RParen)) {
    do {
      ParamAst P;
      if (!parseType(P.Ty)) {
        error("expected parameter type");
        return nullptr;
      }
      if (!check(TokKind::Identifier)) {
        error("expected parameter name");
        return nullptr;
      }
      P.Name = takeText();
      F->Params.push_back(std::move(P));
    } while (accept(TokKind::Comma));
  }
  if (!expect(TokKind::RParen, "to end parameter list"))
    return nullptr;

  if (!check(TokKind::LBrace)) {
    error("expected function body");
    return nullptr;
  }
  F->Body = parseBody();
  return F;
}

StmtPtr Parser::parseBlock() {
  const SrcLoc Loc = loc();
  expect(TokKind::LBrace, "to begin block");
  auto Block = std::make_unique<Stmt>(StmtKind::Block, Loc);
  while (!check(TokKind::RBrace) && !check(TokKind::Eof) &&
         Errors.size() < 50) {
    if (StmtPtr S = parseStatement())
      Block->Body.push_back(std::move(S));
  }
  expect(TokKind::RBrace, "to end block");
  return Block;
}

StmtPtr Parser::parseBody() {
  ++StmtDepth;
  StmtPtr Body = check(TokKind::LBrace) ? parseBlock() : parseStatement();
  --StmtDepth;
  return Body;
}

StmtPtr Parser::parseStatement() {
  if (StmtDepth > MaxStmtNesting) {
    exceedLimit("statements nested deeper than " +
                std::to_string(MaxStmtNesting) + " levels");
    return nullptr;
  }
  switch (peek().Kind) {
  case TokKind::LBrace:
    return parseBody(); // A nested block: its statements sit a level down.
  case TokKind::KwIf:
    return parseIf();
  case TokKind::KwWhile:
    return parseWhile();
  case TokKind::KwDo:
    return parseDoWhile();
  case TokKind::KwFor:
    return parseFor();
  case TokKind::KwInt:
  case TokKind::KwFp:
    return parseDecl();
  case TokKind::KwReturn: {
    const SrcLoc Loc = loc();
    drop();
    auto S = std::make_unique<Stmt>(StmtKind::Return, Loc);
    if (!check(TokKind::Semicolon))
      S->Value = parseExpr();
    expect(TokKind::Semicolon, "after return");
    return S;
  }
  case TokKind::KwBreak: {
    const SrcLoc Loc = loc();
    drop();
    expect(TokKind::Semicolon, "after break");
    return std::make_unique<Stmt>(StmtKind::Break, Loc);
  }
  case TokKind::KwContinue: {
    const SrcLoc Loc = loc();
    drop();
    expect(TokKind::Semicolon, "after continue");
    return std::make_unique<Stmt>(StmtKind::Continue, Loc);
  }
  case TokKind::Semicolon:
    drop();
    return nullptr;
  default: {
    StmtPtr S = parseSimpleStmt();
    if (!S) {
      syncToStatementEnd();
      return nullptr;
    }
    expect(TokKind::Semicolon, "after statement");
    return S;
  }
  }
}

StmtPtr Parser::parseIf() {
  const SrcLoc Loc = loc();
  drop(); // if
  auto S = std::make_unique<Stmt>(StmtKind::If, Loc);
  expect(TokKind::LParen, "after 'if'");
  S->Value = parseExpr();
  expect(TokKind::RParen, "after if condition");
  S->Then = parseBody();
  if (accept(TokKind::KwElse))
    S->Else = parseBody();
  return S;
}

StmtPtr Parser::parseWhile() {
  const SrcLoc Loc = loc();
  drop(); // while
  auto S = std::make_unique<Stmt>(StmtKind::While, Loc);
  expect(TokKind::LParen, "after 'while'");
  S->Value = parseExpr();
  expect(TokKind::RParen, "after while condition");
  S->Then = parseBody();
  return S;
}

StmtPtr Parser::parseDoWhile() {
  const SrcLoc Loc = loc();
  drop(); // do
  auto S = std::make_unique<Stmt>(StmtKind::DoWhile, Loc);
  S->Then = parseBody();
  expect(TokKind::KwWhile, "after do body");
  expect(TokKind::LParen, "after 'while'");
  S->Value = parseExpr();
  expect(TokKind::RParen, "after do-while condition");
  expect(TokKind::Semicolon, "after do-while");
  return S;
}

StmtPtr Parser::parseFor() {
  const SrcLoc Loc = loc();
  drop(); // for
  auto S = std::make_unique<Stmt>(StmtKind::For, Loc);
  expect(TokKind::LParen, "after 'for'");
  if (!check(TokKind::Semicolon)) {
    if (check(TokKind::KwInt) || check(TokKind::KwFp))
      S->Init = parseDecl(); // Consumes the ';'.
    else {
      S->Init = parseSimpleStmt();
      expect(TokKind::Semicolon, "after for-init");
    }
  } else {
    drop();
  }
  if (!check(TokKind::Semicolon))
    S->Value = parseExpr();
  expect(TokKind::Semicolon, "after for-condition");
  if (!check(TokKind::RParen))
    S->Step = parseSimpleStmt();
  expect(TokKind::RParen, "after for clauses");
  S->Then = parseBody();
  return S;
}

StmtPtr Parser::parseDecl() {
  const SrcLoc Loc = loc();
  auto S = std::make_unique<Stmt>(StmtKind::Decl, Loc);
  if (!parseType(S->DeclTy)) {
    error("expected type in declaration");
    return nullptr;
  }
  if (!check(TokKind::Identifier)) {
    error("expected name in declaration");
    return nullptr;
  }
  S->Name = takeText();
  if (accept(TokKind::Assign))
    S->Value = parseExpr();
  expect(TokKind::Semicolon, "after declaration");
  return S;
}

StmtPtr Parser::parseSimpleStmt() {
  const SrcLoc Loc = loc();
  if (!check(TokKind::Identifier)) {
    error("expected statement, found " +
          std::string(tokKindName(peek().Kind)));
    return nullptr;
  }

  // Call statement: ident ( ...
  if (peek(1).Kind == TokKind::LParen) {
    auto S = std::make_unique<Stmt>(StmtKind::ExprEval, Loc);
    unsigned Height = 0;
    S->Value = parsePrimary(Height);
    return S;
  }

  std::string Name = takeText();

  // Optional array subscript target.
  ExprPtr Target;
  if (accept(TokKind::LBracket)) {
    ++ExprDepth; // Below the subscript node.
    ExprPtr Sub = parseExpr();
    --ExprDepth;
    expect(TokKind::RBracket, "after subscript");
    Target = makeIndex(Name, std::move(Sub), Loc);
  } else {
    Target = makeVar(Name, Loc);
  }

  TokKind K = peek().Kind;
  BinOp CompoundOp = BinOp::Add;
  bool IsCompound = false;
  switch (K) {
  case TokKind::Assign:
    break;
  case TokKind::PlusAssign:
    IsCompound = true;
    CompoundOp = BinOp::Add;
    break;
  case TokKind::MinusAssign:
    IsCompound = true;
    CompoundOp = BinOp::Sub;
    break;
  case TokKind::StarAssign:
    IsCompound = true;
    CompoundOp = BinOp::Mul;
    break;
  case TokKind::SlashAssign:
    IsCompound = true;
    CompoundOp = BinOp::Div;
    break;
  case TokKind::PercentAssign:
    IsCompound = true;
    CompoundOp = BinOp::Rem;
    break;
  case TokKind::PlusPlus:
  case TokKind::MinusMinus: {
    drop();
    auto S = std::make_unique<Stmt>(StmtKind::Assign, Loc);
    // Desugar x++ / x-- into x = x (+|-) 1. For array elements the
    // subscript appears twice; lowering evaluates it once per occurrence,
    // which matches C semantics for side-effect-free subscripts (SPTc
    // subscripts cannot have side effects: no assignment expressions).
    if (Target->Kind == ExprKind::Index) {
      error("'++'/'--' on array elements is not supported; "
            "write 'a[i] = a[i] + 1'");
      return nullptr;
    }
    ExprPtr ReadBack = makeVar(Target->Name, Loc);
    S->Value = makeBinary(K == TokKind::PlusPlus ? BinOp::Add : BinOp::Sub,
                          std::move(ReadBack), makeIntLit(1, Loc), Loc);
    S->Target = std::move(Target);
    return S;
  }
  default:
    error("expected assignment operator, found " +
          std::string(tokKindName(K)));
    return nullptr;
  }
  drop(); // The assignment operator.

  // A compound assignment's value sits below the operator it desugars to.
  ExprDepth += IsCompound;
  ExprPtr Value = parseExpr();
  ExprDepth -= IsCompound;
  auto S = std::make_unique<Stmt>(StmtKind::Assign, Loc);
  if (IsCompound) {
    if (Target->Kind == ExprKind::Index) {
      error("compound assignment to array elements is not supported; "
            "write 'a[i] = a[i] op e'");
      return nullptr;
    }
    ExprPtr ReadBack = makeVar(Target->Name, Loc);
    Value = makeBinary(CompoundOp, std::move(ReadBack), std::move(Value), Loc);
  }
  S->Target = std::move(Target);
  S->Value = std::move(Value);
  return S;
}

ExprPtr Parser::parseExpr() {
  unsigned Height = 0;
  return parseExpr(Height);
}

ExprPtr Parser::parseExpr(unsigned &Height) {
  ExprPtr Cond = parseUnary(Height);
  Cond = parseBinaryRhs(0, std::move(Cond), Height);
  if (!accept(TokKind::Question))
    return Cond;
  const SrcLoc Loc = Cond ? Cond->Loc : loc();
  unsigned ThenHeight = 0, ElseHeight = 0;
  ++ExprDepth;
  ExprPtr Then = parseExpr(ThenHeight);
  expect(TokKind::Colon, "in conditional expression");
  ExprPtr Else = parseExpr(ElseHeight);
  --ExprDepth;
  // The condition was parsed before its node was known, as in a fold.
  Height = std::max({Height, ThenHeight, ElseHeight}) + 1;
  fitsExprLimit(Height);
  return makeCond(std::move(Cond), std::move(Then), std::move(Else), Loc);
}

bool Parser::fitsExprLimit(unsigned Height) {
  if (ExprDepth + Height <= MaxExprNesting)
    return true;
  exceedLimit("expression nested deeper than " +
              std::to_string(MaxExprNesting) + " levels");
  return false;
}

namespace {

/// Precedence table; higher binds tighter. Returns -1 for non-operators.
int binaryPrecedence(TokKind K) {
  switch (K) {
  case TokKind::PipePipe:
    return 1;
  case TokKind::AmpAmp:
    return 2;
  case TokKind::Pipe:
    return 3;
  case TokKind::Caret:
    return 4;
  case TokKind::Amp:
    return 5;
  case TokKind::EqEq:
  case TokKind::NotEq:
    return 6;
  case TokKind::Lt:
  case TokKind::Le:
  case TokKind::Gt:
  case TokKind::Ge:
    return 7;
  case TokKind::Shl:
  case TokKind::Shr:
    return 8;
  case TokKind::Plus:
  case TokKind::Minus:
    return 9;
  case TokKind::Star:
  case TokKind::Slash:
  case TokKind::Percent:
    return 10;
  default:
    return -1;
  }
}

BinOp binOpFor(TokKind K) {
  switch (K) {
  case TokKind::PipePipe:
    return BinOp::LOr;
  case TokKind::AmpAmp:
    return BinOp::LAnd;
  case TokKind::Pipe:
    return BinOp::Or;
  case TokKind::Caret:
    return BinOp::Xor;
  case TokKind::Amp:
    return BinOp::And;
  case TokKind::EqEq:
    return BinOp::Eq;
  case TokKind::NotEq:
    return BinOp::Ne;
  case TokKind::Lt:
    return BinOp::Lt;
  case TokKind::Le:
    return BinOp::Le;
  case TokKind::Gt:
    return BinOp::Gt;
  case TokKind::Ge:
    return BinOp::Ge;
  case TokKind::Shl:
    return BinOp::Shl;
  case TokKind::Shr:
    return BinOp::Shr;
  case TokKind::Plus:
    return BinOp::Add;
  case TokKind::Minus:
    return BinOp::Sub;
  case TokKind::Star:
    return BinOp::Mul;
  case TokKind::Slash:
    return BinOp::Div;
  case TokKind::Percent:
    return BinOp::Rem;
  default:
    spt_unreachable("not a binary operator token");
  }
}

} // namespace

ExprPtr Parser::parseBinaryRhs(int MinPrec, ExprPtr Lhs, unsigned &Height) {
  for (;;) {
    const TokKind OpTok = peek().Kind;
    const int Prec = binaryPrecedence(OpTok);
    if (Prec < 0 || Prec < MinPrec)
      return Lhs;
    drop();
    // The right operand, and whatever binds tighter into it, sits below
    // the new node.
    ++ExprDepth;
    unsigned RhsHeight = 0;
    ExprPtr Rhs = parseUnary(RhsHeight);
    // Left associativity: bind tighter operators into Rhs first.
    while (binaryPrecedence(peek().Kind) > Prec)
      Rhs = parseBinaryRhs(binaryPrecedence(peek().Kind), std::move(Rhs),
                           RhsHeight);
    --ExprDepth;
    const SrcLoc Loc = Lhs ? Lhs->Loc : loc();
    // A left fold deepens the tree without recursing: count its height.
    Height = std::max(Height, RhsHeight) + 1;
    fitsExprLimit(Height);
    Lhs = makeBinary(binOpFor(OpTok), std::move(Lhs), std::move(Rhs), Loc);
  }
}

ExprPtr Parser::parseUnary(unsigned &Height) {
  const SrcLoc Loc = loc();
  // Stop before recursing when even a leaf here would be too deep.
  if (!fitsExprLimit(1)) {
    Height = 1;
    return makeIntLit(0, Loc);
  }
  UnOp Op = UnOp::Neg;
  if (accept(TokKind::Minus))
    Op = UnOp::Neg;
  else if (accept(TokKind::Bang))
    Op = UnOp::LogNot;
  else if (accept(TokKind::Tilde))
    Op = UnOp::BitNot;
  else
    return parsePrimary(Height);
  ++ExprDepth;
  ExprPtr Operand = parseUnary(Height);
  --ExprDepth;
  ++Height;
  return makeUnary(Op, std::move(Operand), Loc);
}

ExprPtr Parser::parsePrimary(unsigned &Height) {
  const SrcLoc Loc = loc();
  Height = 1;
  switch (peek().Kind) {
  case TokKind::IntLiteral: {
    const int64_t V = peek().IntValue;
    drop();
    return makeIntLit(V, Loc);
  }
  case TokKind::FpLiteral: {
    const double V = peek().FpValue;
    drop();
    return makeFpLit(V, Loc);
  }
  case TokKind::LParen: {
    if (ParenDepth == MaxExprNesting) {
      exceedLimit("more than " + std::to_string(MaxExprNesting) +
                  " nested parentheses");
      return makeIntLit(0, Loc);
    }
    drop();
    ++ParenDepth;
    ExprPtr E = parseExpr(Height);
    --ParenDepth;
    expect(TokKind::RParen, "after parenthesized expression");
    return E;
  }
  case TokKind::Identifier: {
    std::string Name = takeText();
    if (accept(TokKind::LParen)) {
      std::vector<ExprPtr> Args;
      if (!check(TokKind::RParen)) {
        ++ExprDepth;
        do {
          unsigned ArgHeight = 0;
          Args.push_back(parseExpr(ArgHeight));
          Height = std::max(Height, ArgHeight + 1);
        } while (accept(TokKind::Comma));
        --ExprDepth;
      }
      expect(TokKind::RParen, "after call arguments");
      return makeCall(std::move(Name), std::move(Args), Loc);
    }
    if (accept(TokKind::LBracket)) {
      ++ExprDepth;
      ExprPtr Sub = parseExpr(Height);
      --ExprDepth;
      ++Height;
      expect(TokKind::RBracket, "after subscript");
      return makeIndex(std::move(Name), std::move(Sub), Loc);
    }
    return makeVar(std::move(Name), Loc);
  }
  default:
    error("expected expression, found " +
          std::string(tokKindName(peek().Kind)));
    drop();
    return makeIntLit(0, Loc);
  }
}

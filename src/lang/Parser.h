//===- lang/Parser.h - SPTc recursive-descent parser ----------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A recursive-descent parser for SPTc with two-token lookahead. Errors are
/// collected as "line:col: message" strings; parsing continues after a
/// statement-level error by synchronizing to the next ';' or '}'. A
/// lexical error is reported at the bad character and ends the input
/// there.
///
/// Nesting is bounded by constants, so no input can exhaust the stack of
/// the parser or of the stages that recurse over its tree (printing,
/// lowering, AST teardown); deeper input is a parse error that also ends
/// the input.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_LANG_PARSER_H
#define SPT_LANG_PARSER_H

#include "lang/Ast.h"
#include "lang/Lexer.h"

#include <cassert>
#include <string>
#include <vector>

namespace spt {

/// Deepest statement nesting accepted: a statement inside a block, an
/// if or else branch or a loop body sits one level below the statement
/// that holds it. The braces of a branch or loop body add no level of
/// their own, so a program and its canonical reprint (which braces every
/// body) nest equally deep. C's translation limit for blocks.
inline constexpr unsigned MaxStmtNesting = 127;

/// Tallest expression accepted, in nodes on the longest root-to-leaf path
/// of the tree the parser builds; a left-associative chain a + b + c ...
/// adds one level per operator. Also the most parenthesized groups open
/// at once. C's translation limit for parenthesized expressions.
inline constexpr unsigned MaxExprNesting = 63;

/// Parses a full SPTc translation unit.
class Parser {
public:
  explicit Parser(std::string Source);

  /// Parses the program. Check errors() afterwards; the returned AST is
  /// meaningful only when there are no errors.
  ProgramAst parseProgram();

  const std::vector<std::string> &errors() const { return Errors; }

private:
  // Token stream: a two-slot ring, since peek(1) is the deepest lookahead
  // the grammar uses.
  const Token &peek(size_t Ahead = 0) {
    assert(Ahead < 2 && "the grammar looks at most one token ahead");
    while (Buffered <= Ahead)
      fill();
    return Ring[(Head + Ahead) & 1];
  }
  void fill();
  /// Discards the current token.
  void drop() {
    peek();
    Head ^= 1;
    --Buffered;
  }
  /// Discards the current token and returns its text.
  std::string takeText();
  bool check(TokKind Kind) { return peek().Kind == Kind; }
  bool accept(TokKind Kind) {
    if (!check(Kind))
      return false;
    drop();
    return true;
  }
  /// Consumes a token of \p Kind or reports an error. Returns success.
  bool expect(TokKind Kind, const char *Context);
  SrcLoc loc();

  void error(const std::string &Msg);
  /// Reports the nesting limit \p Msg at the current token, unless one
  /// was already reported, and ends the input there: every later token
  /// reads as end of input, so the open productions unwind.
  void exceedLimit(const std::string &Msg);
  void syncToStatementEnd();

  // Grammar productions.
  bool parseType(Type &Out);
  void parseTopLevel(ProgramAst &Program);
  std::unique_ptr<FuncAst> parseFunction(Type RetTy, std::string Name,
                                         SrcLoc Loc);
  /// Parses '{' statements '}', the statements at nesting level
  /// StmtDepth.
  StmtPtr parseBlock();
  /// Parses the body of a branch or loop one nesting level down.
  StmtPtr parseBody();
  StmtPtr parseStatement();
  StmtPtr parseIf();
  StmtPtr parseWhile();
  StmtPtr parseDoWhile();
  StmtPtr parseFor();
  StmtPtr parseDecl();
  /// Parses an assignment or call statement without the trailing ';'.
  StmtPtr parseSimpleStmt();

  // Expressions. Each sets \p Height to the height of the tree it
  // returns.
  ExprPtr parseExpr();
  ExprPtr parseExpr(unsigned &Height);
  ExprPtr parseBinaryRhs(int MinPrec, ExprPtr Lhs, unsigned &Height);
  ExprPtr parseUnary(unsigned &Height);
  ExprPtr parsePrimary(unsigned &Height);
  /// False, after reporting the limit, when a node of \p Height below
  /// the ExprDepth nodes known to sit above it exceeds MaxExprNesting.
  bool fitsExprLimit(unsigned Height);

  Lexer Lex;
  Token Ring[2];
  unsigned Head = 0;     // Ring slot of the current token.
  unsigned Buffered = 0; // Tokens in the ring.
  bool Ended = false;    // Input ended: every further token is Eof.
  SrcLoc EndLoc;         // Where it ended.
  bool LimitHit = false; // A nesting limit was reported.
  unsigned StmtDepth = 0;  // Nesting level of the statements being parsed.
  unsigned ExprDepth = 0;  // Nodes known to sit above the expression being
                           // parsed, within its full expression.
  unsigned ParenDepth = 0; // Parenthesized groups open.
  std::vector<std::string> Errors;
};

} // namespace spt

#endif // SPT_LANG_PARSER_H

//===- tests/lang_test.cpp - SPTc frontend tests ----------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "NestingPrograms.h"

#include "ir/IR.h"
#include "ir/IRPrinter.h"
#include "lang/AstPrinter.h"
#include "lang/Frontend.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace spt;
using namespace spt::nesting_programs;

namespace {

std::vector<TokKind> lexAll(const std::string &Src) {
  Lexer L(Src);
  std::vector<TokKind> Kinds;
  for (;;) {
    Token T = L.next();
    Kinds.push_back(T.Kind);
    if (T.Kind == TokKind::Eof || T.Kind == TokKind::Error)
      break;
  }
  return Kinds;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LexerTest, KeywordsAndIdentifiers) {
  auto Kinds = lexAll("int fp void if else while do for return break "
                      "continue foo _bar x9");
  std::vector<TokKind> Expected = {
      TokKind::KwInt,     TokKind::KwFp,       TokKind::KwVoid,
      TokKind::KwIf,      TokKind::KwElse,     TokKind::KwWhile,
      TokKind::KwDo,      TokKind::KwFor,      TokKind::KwReturn,
      TokKind::KwBreak,   TokKind::KwContinue, TokKind::Identifier,
      TokKind::Identifier, TokKind::Identifier, TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, NumbersIntAndFp) {
  Lexer L("42 3.5 1e3 2.5e-2 7");
  Token T = L.next();
  EXPECT_EQ(T.Kind, TokKind::IntLiteral);
  EXPECT_EQ(T.IntValue, 42);
  T = L.next();
  EXPECT_EQ(T.Kind, TokKind::FpLiteral);
  EXPECT_DOUBLE_EQ(T.FpValue, 3.5);
  T = L.next();
  EXPECT_EQ(T.Kind, TokKind::FpLiteral);
  EXPECT_DOUBLE_EQ(T.FpValue, 1000.0);
  T = L.next();
  EXPECT_EQ(T.Kind, TokKind::FpLiteral);
  EXPECT_DOUBLE_EQ(T.FpValue, 0.025);
  T = L.next();
  EXPECT_EQ(T.Kind, TokKind::IntLiteral);
  EXPECT_EQ(T.IntValue, 7);
}

TEST(LexerTest, OperatorsMaximalMunch) {
  auto Kinds = lexAll("<< <= < == = != ! ++ += + && &");
  std::vector<TokKind> Expected = {
      TokKind::Shl,   TokKind::Le,     TokKind::Lt,         TokKind::EqEq,
      TokKind::Assign, TokKind::NotEq, TokKind::Bang,       TokKind::PlusPlus,
      TokKind::PlusAssign, TokKind::Plus, TokKind::AmpAmp, TokKind::Amp,
      TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, CommentsSkipped) {
  auto Kinds = lexAll("a // line comment\n b /* block\n comment */ c");
  std::vector<TokKind> Expected = {TokKind::Identifier, TokKind::Identifier,
                                   TokKind::Identifier, TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, TracksLineAndColumn) {
  Lexer L("a\n  b");
  Token A = L.next();
  EXPECT_EQ(A.Line, 1u);
  EXPECT_EQ(A.Col, 1u);
  Token B = L.next();
  EXPECT_EQ(B.Line, 2u);
  EXPECT_EQ(B.Col, 3u);
}

TEST(LexerTest, ReportsBadCharacter) {
  Lexer L("a @ b");
  L.next();
  Token T = L.next();
  EXPECT_EQ(T.Kind, TokKind::Error);
}

TEST(LexerTest, EmbeddedNulEndsTheInput) {
  const char Text[] = "a b\0c @";
  const std::string Src(Text, sizeof(Text) - 1);
  EXPECT_EQ(lexAll(Src), (std::vector<TokKind>{TokKind::Identifier,
                                               TokKind::Identifier,
                                               TokKind::Eof}));
  Lexer L(Src);
  L.next();
  L.next();
  for (int I = 0; I != 3; ++I) {
    const Token T = L.next();
    EXPECT_EQ(T.Kind, TokKind::Eof);
    EXPECT_EQ(T.Col, 4u);
  }
  const char Program[] = "int main() { return 1; }\0 @ garbage";
  Parser P(std::string(Program, sizeof(Program) - 1));
  P.parseProgram();
  EXPECT_TRUE(P.errors().empty()) << P.errors()[0];
}

TEST(LexerTest, UnterminatedBlockCommentRunsToEndOfInput) {
  Lexer L("a /* never closed\n b *");
  EXPECT_EQ(L.next().Kind, TokKind::Identifier);
  const Token T = L.next();
  EXPECT_EQ(T.Kind, TokKind::Eof);
  EXPECT_EQ(T.Line, 2u);
  EXPECT_EQ(T.Col, 5u);
  EXPECT_EQ(lexAll("a /*/ b"),
            (std::vector<TokKind>{TokKind::Identifier, TokKind::Eof}));
}

TEST(LexerTest, NumberSuffixesAtEndOfInputStayInBounds) {
  // Longer than the small-string buffer, so the lexer's copy is a heap
  // block that ends at its terminator, and a read past it is an
  // out-of-bounds read the sanitizers catch.
  const std::string Pad(24, ' ');
  EXPECT_EQ(lexAll(Pad + "1e"),
            (std::vector<TokKind>{TokKind::IntLiteral, TokKind::Identifier,
                                  TokKind::Eof}));
  EXPECT_EQ(lexAll(Pad + "1e+"),
            (std::vector<TokKind>{TokKind::IntLiteral, TokKind::Identifier,
                                  TokKind::Plus, TokKind::Eof}));
  EXPECT_EQ(lexAll(Pad + "1E-"),
            (std::vector<TokKind>{TokKind::IntLiteral, TokKind::Identifier,
                                  TokKind::Minus, TokKind::Eof}));
  EXPECT_EQ(lexAll(Pad + "2."),
            (std::vector<TokKind>{TokKind::IntLiteral, TokKind::Error}));
  Lexer L(Pad + "2.5e3");
  const Token T = L.next();
  EXPECT_EQ(T.Kind, TokKind::FpLiteral);
  EXPECT_EQ(T.Text, "2.5e3");
  EXPECT_EQ(T.FpValue, 2500.0);
}

TEST(LexerTest, ColumnsAfterCrlfAndTabs) {
  Lexer L("a\r\n\tb\tc\r\n  d\re");
  const unsigned Want[][2] = {{1, 1}, {2, 2}, {2, 4}, {3, 3}, {3, 5}};
  for (const auto &W : Want) {
    const Token T = L.next();
    EXPECT_EQ(T.Kind, TokKind::Identifier);
    EXPECT_EQ(T.Line, W[0]) << T.Text;
    EXPECT_EQ(T.Col, W[1]) << T.Text;
  }
  const Token End = L.next();
  EXPECT_EQ(End.Kind, TokKind::Eof);
  EXPECT_EQ(End.Line, 3u);
  EXPECT_EQ(End.Col, 6u);
  // A block comment spanning lines moves the line and restarts columns.
  Lexer C("/* x\n\t y */ z");
  const Token Z = C.next();
  EXPECT_EQ(Z.Line, 2u);
  EXPECT_EQ(Z.Col, 8u);
}

TEST(LexerTest, MovedLexerStaysValid) {
  // A short source lives in the string's inline buffer, which a move
  // copies to a new address; the lexer keeps offsets, not pointers.
  Lexer A("ab cd");
  EXPECT_EQ(A.next().Text, "ab");
  Lexer B = std::move(A);
  const Token T = B.next();
  EXPECT_EQ(T.Text, "cd");
  EXPECT_EQ(T.Col, 4u);
  EXPECT_EQ(B.next().Kind, TokKind::Eof);
}

TEST(LexerTest, KeywordPrefixesAndSuffixesAreIdentifiers) {
  for (const char *Name : {"iff", "format", "do_x", "int2", "i", "in", "f",
                           "fo", "fpx", "d", "els", "elsewhere", "whil",
                           "returns", "breaks", "continu", "voids", "_if",
                           "If", "INT"}) {
    Lexer L(Name);
    const Token T = L.next();
    EXPECT_EQ(T.Kind, TokKind::Identifier) << Name;
    EXPECT_EQ(T.Text, Name);
    EXPECT_EQ(L.next().Kind, TokKind::Eof) << Name;
  }
}

TEST(LexerTest, OverlongIntegerLiteralSaturatesLikeStrtoll) {
  for (const char *Spelling :
       {"0", "000123", "9223372036854775806", "9223372036854775807",
        "9223372036854775808", "9223372036854775817",
        "18446744073709551616", "99999999999999999999999999999999"}) {
    Lexer L(Spelling);
    const Token T = L.next();
    EXPECT_EQ(T.Kind, TokKind::IntLiteral) << Spelling;
    EXPECT_EQ(T.Text, Spelling);
    EXPECT_EQ(T.IntValue, std::strtoll(Spelling, nullptr, 10)) << Spelling;
  }
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(ParserTest, ParsesProgramShape) {
  Parser P("int data[100];\n"
           "int add(int a, int b) { return a + b; }\n"
           "void main() { int x; x = add(1, 2); }\n");
  ProgramAst Ast = P.parseProgram();
  ASSERT_TRUE(P.errors().empty()) << P.errors()[0];
  ASSERT_EQ(Ast.Arrays.size(), 1u);
  EXPECT_EQ(Ast.Arrays[0].Name, "data");
  EXPECT_EQ(Ast.Arrays[0].Size, 100u);
  ASSERT_EQ(Ast.Funcs.size(), 2u);
  EXPECT_EQ(Ast.Funcs[0]->Name, "add");
  ASSERT_EQ(Ast.Funcs[0]->Params.size(), 2u);
}

TEST(ParserTest, PrecedenceBuildsExpectedTree) {
  Parser P("int f() { return 1 + 2 * 3; }");
  ProgramAst Ast = P.parseProgram();
  ASSERT_TRUE(P.errors().empty());
  const Stmt &Ret = *Ast.Funcs[0]->Body->Body[0];
  ASSERT_EQ(Ret.Kind, StmtKind::Return);
  const Expr &E = *Ret.Value;
  ASSERT_EQ(E.Kind, ExprKind::Binary);
  EXPECT_EQ(E.BOp, BinOp::Add);
  EXPECT_EQ(E.Rhs->BOp, BinOp::Mul);
}

TEST(ParserTest, LeftAssociativity) {
  Parser P("int f() { return 10 - 3 - 2; }");
  ProgramAst Ast = P.parseProgram();
  ASSERT_TRUE(P.errors().empty());
  const Expr &E = *Ast.Funcs[0]->Body->Body[0]->Value;
  // (10-3)-2: outer op Sub with Lhs a Sub.
  EXPECT_EQ(E.BOp, BinOp::Sub);
  ASSERT_EQ(E.Lhs->Kind, ExprKind::Binary);
  EXPECT_EQ(E.Lhs->BOp, BinOp::Sub);
  EXPECT_EQ(E.Rhs->Kind, ExprKind::IntLit);
}

TEST(ParserTest, DesugarsCompoundAssign) {
  Parser P("int f() { int x; x += 3; x++; return x; }");
  ProgramAst Ast = P.parseProgram();
  ASSERT_TRUE(P.errors().empty());
  const auto &Body = Ast.Funcs[0]->Body->Body;
  const Stmt &Plus = *Body[1];
  ASSERT_EQ(Plus.Kind, StmtKind::Assign);
  EXPECT_EQ(Plus.Value->BOp, BinOp::Add);
  const Stmt &Inc = *Body[2];
  ASSERT_EQ(Inc.Kind, StmtKind::Assign);
  EXPECT_EQ(Inc.Value->BOp, BinOp::Add);
  EXPECT_EQ(Inc.Value->Rhs->IntValue, 1);
}

TEST(ParserTest, ReportsErrorsWithLocation) {
  Parser P("int f() { return 1 +; }");
  P.parseProgram();
  ASSERT_FALSE(P.errors().empty());
  EXPECT_NE(P.errors()[0].find("1:"), std::string::npos);
}

TEST(ParserTest, LexicalErrorIsReportedAtTheBadCharacterAndEndsInput) {
  Parser P("int main() {\n  int x;\n  x = 1 @ 2;\n  return x;\n}");
  P.parseProgram();
  const std::vector<std::string> Want = {
      "3:9: unexpected character '@'",
      "3:9: expected ';' after statement, found end of input",
      "3:9: expected '}' to end block, found end of input"};
  EXPECT_EQ(P.errors(), Want);
}

TEST(ParserTest, LexicalErrorInLookaheadIsReportedAtTheBadCharacter) {
  // The '@' is lexed as the second token of lookahead ("is x a call?").
  Parser P("void f() {\n  x @ 1;\n}");
  P.parseProgram();
  ASSERT_FALSE(P.errors().empty());
  EXPECT_EQ(P.errors()[0], "2:5: unexpected character '@'");
  for (const std::string &E : P.errors())
    EXPECT_EQ(E.rfind("2:5: ", 0), 0u) << E;
}

TEST(ParserTest, AcceptsProgramsAtTheNestingLimits) {
  for (const NamedProgram &NP : nestingPrograms(0)) {
    Parser P(NP.Source);
    const ProgramAst Ast = P.parseProgram();
    ASSERT_TRUE(P.errors().empty()) << NP.Name << ": " << P.errors()[0];
    // The canonical reprint braces every body and parenthesizes every
    // operator; it must stay within the limits too, and be a fixpoint.
    const std::string Canonical = programToSource(Ast);
    Parser Again(Canonical);
    const ProgramAst Reparsed = Again.parseProgram();
    ASSERT_TRUE(Again.errors().empty())
        << NP.Name << " (canonical): " << Again.errors()[0];
    EXPECT_EQ(programToSource(Reparsed), Canonical) << NP.Name;
    EXPECT_TRUE(compileSource(NP.Source).ok()) << NP.Name;
  }
}

TEST(ParserTest, RejectsProgramsPastTheNestingLimits) {
  for (const NamedProgram &NP : nestingPrograms(1)) {
    Parser P(NP.Source);
    P.parseProgram();
    ASSERT_FALSE(P.errors().empty()) << NP.Name;
    EXPECT_NE(P.errors()[0].find("nested"), std::string::npos)
        << NP.Name << ": " << P.errors()[0];
  }
}

TEST(ParserTest, RejectsHostileNestingWithoutExhaustingTheStack) {
  // Each shape runs far past its limit; the parser stops at the limit,
  // and the first error names the position where it was crossed.
  const size_t N = 100000;
  const struct {
    std::string Source, FirstError;
  } Cases[] = {
      {"int main() { return " + repeat("(", N) + "1" + repeat(")", N) +
           "; }",
       "1:84: more than 63 nested parentheses"},
      {"int main() { return " + repeat("- ", N) + "1; }",
       "1:147: expression nested deeper than 63 levels"},
      {"int main() { return 1" + repeat("+1", N) + "; }",
       "1:148: expression nested deeper than 63 levels"},
      {"int main() { " + repeat("{", N) + repeat("}", N) + " return 0; }",
       "1:141: statements nested deeper than 127 levels"},
  };
  for (const auto &C : Cases) {
    Parser P(C.Source);
    P.parseProgram();
    ASSERT_FALSE(P.errors().empty());
    EXPECT_EQ(P.errors()[0], C.FirstError);
    EXPECT_LT(P.errors().size(), 200u);
  }
}

TEST(ParserTest, RecoversAfterStatementError) {
  Parser P("void f() { x 3; }\nvoid g() { }");
  ProgramAst Ast = P.parseProgram();
  EXPECT_FALSE(P.errors().empty());
  EXPECT_EQ(Ast.Funcs.size(), 2u); // g still parsed.
}

TEST(ParserTest, ParsesAllLoopForms) {
  Parser P("void f() {"
           "  int i;"
           "  for (i = 0; i < 10; i = i + 1) { }"
           "  while (i > 0) { i = i - 1; }"
           "  do { i = i + 1; } while (i < 5);"
           "}");
  ProgramAst Ast = P.parseProgram();
  ASSERT_TRUE(P.errors().empty()) << P.errors()[0];
  const auto &Body = Ast.Funcs[0]->Body->Body;
  ASSERT_EQ(Body.size(), 4u);
  EXPECT_EQ(Body[1]->Kind, StmtKind::For);
  EXPECT_EQ(Body[2]->Kind, StmtKind::While);
  EXPECT_EQ(Body[3]->Kind, StmtKind::DoWhile);
}

TEST(ParserTest, TernaryAndLogical) {
  Parser P("int f(int a, int b) { return a && b ? a : b || 1; }");
  ProgramAst Ast = P.parseProgram();
  ASSERT_TRUE(P.errors().empty()) << P.errors()[0];
  const Expr &E = *Ast.Funcs[0]->Body->Body[0]->Value;
  EXPECT_EQ(E.Kind, ExprKind::Cond);
  EXPECT_EQ(E.Lhs->BOp, BinOp::LAnd);
  EXPECT_EQ(E.Aux->BOp, BinOp::LOr);
}

//===----------------------------------------------------------------------===//
// Frontend (parse + lower + verify)
//===----------------------------------------------------------------------===//

TEST(FrontendTest, CompilesCleanProgram) {
  CompileResult R = compileSource("int a[10];\n"
                                  "int sum() {\n"
                                  "  int s; int i;\n"
                                  "  for (i = 0; i < 10; i = i + 1)\n"
                                  "    s = s + a[i];\n"
                                  "  return s;\n"
                                  "}\n");
  ASSERT_TRUE(R.ok()) << R.Errors[0];
  ASSERT_NE(R.M->findFunction("sum"), nullptr);
}

TEST(FrontendTest, RejectsUndeclaredVariable) {
  CompileResult R = compileSource("int f() { return zz; }");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("undeclared"), std::string::npos);
}

TEST(FrontendTest, RejectsImplicitFpToInt) {
  CompileResult R = compileSource("int f() { int x; x = 1.5; return x; }");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("ftoi"), std::string::npos);
}

TEST(FrontendTest, AllowsImplicitIntToFp) {
  CompileResult R = compileSource("fp f() { fp x; x = 3; return x + 1; }");
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.Errors[0]);
}

TEST(FrontendTest, RejectsBadCallArity) {
  CompileResult R =
      compileSource("int g(int a) { return a; } int f() { return g(); }");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("expects"), std::string::npos);
}

TEST(FrontendTest, RejectsBreakOutsideLoop) {
  CompileResult R = compileSource("void f() { break; }");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("break"), std::string::npos);
}

TEST(FrontendTest, BuiltinsLowerToOpcodesOrExternals) {
  CompileResult R = compileSource(
      "fp f(fp x) { return fabs(x) + sqrt(x); }\n"
      "int g(int n) { return iabs(n) + rnd(10) + imin(n, 3); }\n");
  ASSERT_TRUE(R.ok()) << R.Errors[0];
  // sqrt and rnd become external functions; fabs/iabs/imin do not.
  EXPECT_NE(R.M->findFunction("sqrt"), nullptr);
  EXPECT_NE(R.M->findFunction("rnd"), nullptr);
  EXPECT_EQ(R.M->findFunction("fabs"), nullptr);
  EXPECT_EQ(R.M->findFunction("iabs"), nullptr);
  const std::string Text = functionToString(*R.M, *R.M->findFunction("f"));
  EXPECT_NE(Text.find("fabs"), std::string::npos); // The opcode mnemonic.
}

TEST(FrontendTest, ShortCircuitProducesBranches) {
  CompileResult R =
      compileSource("int f(int a, int b) { return a && b; }");
  ASSERT_TRUE(R.ok()) << R.Errors[0];
  const Function *F = R.M->findFunction("f");
  EXPECT_GE(F->numBlocks(), 4u); // entry + rhs + short + done.
}

TEST(FrontendTest, DeadCodeAfterReturnStillVerifies) {
  CompileResult R = compileSource("int f() { return 1; int x; x = 2; }");
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.Errors[0]);
}

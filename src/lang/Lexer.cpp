//===- lang/Lexer.cpp - SPTc lexer ----------------------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include "support/Debug.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

using namespace spt;

const char *spt::tokKindName(TokKind Kind) {
  switch (Kind) {
  case TokKind::Eof:
    return "end of input";
  case TokKind::Error:
    return "invalid token";
  case TokKind::Identifier:
    return "identifier";
  case TokKind::IntLiteral:
    return "integer literal";
  case TokKind::FpLiteral:
    return "floating-point literal";
  case TokKind::KwInt:
    return "'int'";
  case TokKind::KwFp:
    return "'fp'";
  case TokKind::KwVoid:
    return "'void'";
  case TokKind::KwIf:
    return "'if'";
  case TokKind::KwElse:
    return "'else'";
  case TokKind::KwWhile:
    return "'while'";
  case TokKind::KwDo:
    return "'do'";
  case TokKind::KwFor:
    return "'for'";
  case TokKind::KwReturn:
    return "'return'";
  case TokKind::KwBreak:
    return "'break'";
  case TokKind::KwContinue:
    return "'continue'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::LBracket:
    return "'['";
  case TokKind::RBracket:
    return "']'";
  case TokKind::Comma:
    return "','";
  case TokKind::Semicolon:
    return "';'";
  case TokKind::Question:
    return "'?'";
  case TokKind::Colon:
    return "':'";
  case TokKind::Assign:
    return "'='";
  case TokKind::PlusAssign:
    return "'+='";
  case TokKind::MinusAssign:
    return "'-='";
  case TokKind::StarAssign:
    return "'*='";
  case TokKind::SlashAssign:
    return "'/='";
  case TokKind::PercentAssign:
    return "'%='";
  case TokKind::PlusPlus:
    return "'++'";
  case TokKind::MinusMinus:
    return "'--'";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Percent:
    return "'%'";
  case TokKind::Amp:
    return "'&'";
  case TokKind::Pipe:
    return "'|'";
  case TokKind::Caret:
    return "'^'";
  case TokKind::Tilde:
    return "'~'";
  case TokKind::Bang:
    return "'!'";
  case TokKind::Shl:
    return "'<<'";
  case TokKind::Shr:
    return "'>>'";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::NotEq:
    return "'!='";
  case TokKind::Lt:
    return "'<'";
  case TokKind::Le:
    return "'<='";
  case TokKind::Gt:
    return "'>'";
  case TokKind::Ge:
    return "'>='";
  case TokKind::AmpAmp:
    return "'&&'";
  case TokKind::PipePipe:
    return "'||'";
  }
  spt_unreachable("unknown token kind");
}

namespace {

// ASCII classification by compares: the lexer's alphabet is fixed, so
// <cctype>'s locale-dependent lookups are not needed.
bool isDigit(char C) { return static_cast<unsigned char>(C - '0') < 10; }

bool isIdentStart(char C) {
  const unsigned char Lower = static_cast<unsigned char>(C) | 0x20;
  return static_cast<unsigned char>(Lower - 'a') < 26 || C == '_';
}

bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }

/// True when the \p Len bytes at \p S spell keyword \p Kw.
template <size_t N>
bool spells(const char *S, size_t Len, const char (&Kw)[N]) {
  return Len == N - 1 && std::memcmp(S, Kw, N - 1) == 0;
}

/// The keyword spelled by the \p Len bytes at \p S, else Identifier;
/// dispatches on the first letter, then compares length and bytes.
TokKind keywordKind(const char *S, size_t Len) {
  switch (S[0]) {
  case 'b':
    return spells(S, Len, "break") ? TokKind::KwBreak : TokKind::Identifier;
  case 'c':
    return spells(S, Len, "continue") ? TokKind::KwContinue
                                      : TokKind::Identifier;
  case 'd':
    return spells(S, Len, "do") ? TokKind::KwDo : TokKind::Identifier;
  case 'e':
    return spells(S, Len, "else") ? TokKind::KwElse : TokKind::Identifier;
  case 'f':
    if (spells(S, Len, "fp"))
      return TokKind::KwFp;
    return spells(S, Len, "for") ? TokKind::KwFor : TokKind::Identifier;
  case 'i':
    if (spells(S, Len, "if"))
      return TokKind::KwIf;
    return spells(S, Len, "int") ? TokKind::KwInt : TokKind::Identifier;
  case 'r':
    return spells(S, Len, "return") ? TokKind::KwReturn : TokKind::Identifier;
  case 'v':
    return spells(S, Len, "void") ? TokKind::KwVoid : TokKind::Identifier;
  case 'w':
    return spells(S, Len, "while") ? TokKind::KwWhile : TokKind::Identifier;
  default:
    return TokKind::Identifier;
  }
}

} // namespace

Lexer::Lexer(std::string Src) : Source(std::move(Src)) {}

// Every scan below reads Source through c_str(), whose terminator is a
// NUL, and looks one byte past a byte only after seeing that it is not a
// NUL: no read leaves the string.

void Lexer::skipWhitespaceAndComments() {
  const char *S = Source.c_str();
  size_t P = Pos;
  for (;;) {
    const char C = S[P];
    if (C == ' ' || C == '\t' || C == '\r') {
      ++P;
    } else if (C == '\n') {
      ++P;
      ++Line;
      LineStart = P;
    } else if (C == '/' && S[P + 1] == '/') {
      P += 2;
      while (S[P] != '\n' && S[P] != '\0')
        ++P;
    } else if (C == '/' && S[P + 1] == '*') {
      // An unterminated comment runs to the end of input.
      P += 2;
      while (S[P] != '\0' && !(S[P] == '*' && S[P + 1] == '/')) {
        if (S[P] == '\n') {
          ++Line;
          LineStart = P + 1;
        }
        ++P;
      }
      if (S[P] != '\0')
        P += 2;
    } else {
      break;
    }
  }
  Pos = P;
}

void Lexer::lexNumber(Token &T) {
  const char *S = Source.c_str();
  const size_t Start = Pos;
  size_t P = Start;
  while (isDigit(S[P]))
    ++P;
  bool IsFp = false;
  if (S[P] == '.' && isDigit(S[P + 1])) {
    IsFp = true;
    P += 2;
    while (isDigit(S[P]))
      ++P;
  }
  if (S[P] == 'e' || S[P] == 'E') {
    size_t Ahead = 1;
    if (S[P + 1] == '+' || S[P + 1] == '-')
      ++Ahead;
    if (isDigit(S[P + Ahead])) {
      IsFp = true;
      P += Ahead + 1;
      while (isDigit(S[P]))
        ++P;
    }
  }
  Pos = P;
  T.Text.assign(S + Start, P - Start);
  if (IsFp) {
    T.Kind = TokKind::FpLiteral;
    T.FpValue = std::strtod(T.Text.c_str(), nullptr);
    return;
  }
  // Decimal digits only; an overflowing literal saturates, as strtoll
  // does.
  T.Kind = TokKind::IntLiteral;
  uint64_t V = 0;
  for (size_t I = Start; I != P; ++I) {
    const unsigned Digit = static_cast<unsigned>(S[I] - '0');
    if (V > (static_cast<uint64_t>(INT64_MAX) - Digit) / 10) {
      V = INT64_MAX;
      break;
    }
    V = V * 10 + Digit;
  }
  T.IntValue = static_cast<int64_t>(V);
}

void Lexer::lexIdentifier(Token &T) {
  const char *S = Source.c_str();
  const size_t Start = Pos;
  size_t P = Start + 1;
  while (isIdentChar(S[P]))
    ++P;
  Pos = P;
  T.Kind = keywordKind(S + Start, P - Start);
  if (T.Kind == TokKind::Identifier)
    T.Text.assign(S + Start, P - Start);
}

Token Lexer::next() {
  Token T;
  next(T);
  return T;
}

void Lexer::next(Token &T) {
  skipWhitespaceAndComments();
  const char *S = Source.c_str();
  size_t P = Pos;
  T.Text.clear();
  T.IntValue = 0;
  T.FpValue = 0.0;
  T.Line = Line;
  T.Col = static_cast<unsigned>(P - LineStart + 1);

  const char C = S[P];
  if (C == '\0') {
    T.Kind = TokKind::Eof;
    return;
  }
  if (isDigit(C))
    return lexNumber(T);
  if (isIdentStart(C))
    return lexIdentifier(T);

  ++P;
  // Consumes the next byte when it is \p Expected.
  auto Match = [&](char Expected) {
    if (S[P] != Expected)
      return false;
    ++P;
    return true;
  };
  TokKind Kind = TokKind::Error;
  switch (C) {
  case '(':
    Kind = TokKind::LParen;
    break;
  case ')':
    Kind = TokKind::RParen;
    break;
  case '{':
    Kind = TokKind::LBrace;
    break;
  case '}':
    Kind = TokKind::RBrace;
    break;
  case '[':
    Kind = TokKind::LBracket;
    break;
  case ']':
    Kind = TokKind::RBracket;
    break;
  case ',':
    Kind = TokKind::Comma;
    break;
  case ';':
    Kind = TokKind::Semicolon;
    break;
  case '?':
    Kind = TokKind::Question;
    break;
  case ':':
    Kind = TokKind::Colon;
    break;
  case '~':
    Kind = TokKind::Tilde;
    break;
  case '^':
    Kind = TokKind::Caret;
    break;
  case '+':
    Kind = Match('=')   ? TokKind::PlusAssign
           : Match('+') ? TokKind::PlusPlus
                        : TokKind::Plus;
    break;
  case '-':
    Kind = Match('=')   ? TokKind::MinusAssign
           : Match('-') ? TokKind::MinusMinus
                        : TokKind::Minus;
    break;
  case '*':
    Kind = Match('=') ? TokKind::StarAssign : TokKind::Star;
    break;
  case '/':
    Kind = Match('=') ? TokKind::SlashAssign : TokKind::Slash;
    break;
  case '%':
    Kind = Match('=') ? TokKind::PercentAssign : TokKind::Percent;
    break;
  case '&':
    Kind = Match('&') ? TokKind::AmpAmp : TokKind::Amp;
    break;
  case '|':
    Kind = Match('|') ? TokKind::PipePipe : TokKind::Pipe;
    break;
  case '!':
    Kind = Match('=') ? TokKind::NotEq : TokKind::Bang;
    break;
  case '=':
    Kind = Match('=') ? TokKind::EqEq : TokKind::Assign;
    break;
  case '<':
    Kind = Match('<')   ? TokKind::Shl
           : Match('=') ? TokKind::Le
                        : TokKind::Lt;
    break;
  case '>':
    Kind = Match('>')   ? TokKind::Shr
           : Match('=') ? TokKind::Ge
                        : TokKind::Gt;
    break;
  default:
    Kind = TokKind::Error;
    T.Text = "unexpected character '";
    T.Text += C;
    T.Text += '\'';
    break;
  }
  Pos = P;
  T.Kind = Kind;
}

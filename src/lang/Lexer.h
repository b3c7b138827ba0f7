//===- lang/Lexer.h - SPTc lexer ------------------------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for SPTc. Supports // and /* */ comments, decimal
/// integer and floating-point literals, and the operators in Token.h.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_LANG_LEXER_H
#define SPT_LANG_LEXER_H

#include "lang/Token.h"

#include <string>

namespace spt {

/// Produces a token stream from SPTc source text. The lexer scans its own
/// copy of the source with a cursor; a NUL byte, embedded or the
/// terminator, ends the input. Positions are offsets into that copy, so a
/// moved Lexer stays valid.
class Lexer {
public:
  explicit Lexer(std::string Source);

  /// Lexes and returns the next token. After Eof, keeps returning Eof.
  Token next();

  /// Lexes the next token into \p T, reusing its text buffer.
  void next(Token &T);

private:
  void skipWhitespaceAndComments();
  void lexNumber(Token &T);
  void lexIdentifier(Token &T);

  std::string Source;
  size_t Pos = 0;       // Offset of the next unread byte.
  size_t LineStart = 0; // Offset of the first byte of the current line.
  unsigned Line = 1;
};

} // namespace spt

#endif // SPT_LANG_LEXER_H

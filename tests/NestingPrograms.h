//===- tests/NestingPrograms.h - Programs at the parser's nesting limits --===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// SPTc programs that sit exactly at the parser's nesting limits
// (MaxStmtNesting, MaxExprNesting) and programs one level past them, in
// every shape that reaches a limit: prefix operators, left-fold chains,
// parentheses, conditionals, compound assignments and subscripts (whose
// desugaring adds a level), nested blocks, unbraced if chains and else-if
// chains (whose canonical reprint braces every body). lang_test checks
// that the parser accepts the first set and rejects the second, and that
// each accepted program's canonical reprint parses too; serve_test
// compiles the first set on a server worker.
//
//===----------------------------------------------------------------------===//

#ifndef SPT_TESTS_NESTINGPROGRAMS_H
#define SPT_TESTS_NESTINGPROGRAMS_H

#include "lang/Parser.h"

#include <string>
#include <vector>

namespace spt::nesting_programs {

struct NamedProgram {
  std::string Name;
  std::string Source;
};

inline std::string repeat(const std::string &S, size_t N) {
  std::string Out;
  Out.reserve(S.size() * N);
  for (size_t I = 0; I != N; ++I)
    Out += S;
  return Out;
}

/// A main() whose body runs \p Stmts between a declaration of x and the
/// return.
inline std::string mainWith(const std::string &Stmts) {
  return "int a[4];\nint main() {\n  int x;\n  x = 1;\n" + Stmts +
         "\n  return x;\n}\n";
}

/// The programs with \p Extra levels beyond the limits: 0 gives programs
/// exactly at them, 1 programs one level past.
inline std::vector<NamedProgram> nestingPrograms(unsigned Extra) {
  const size_t E = MaxExprNesting + Extra; // Expression levels wanted.
  const size_t S = MaxStmtNesting + Extra; // Statement levels wanted.
  return {
      // E - 1 prefix operators over a leaf.
      {"unary", mainWith("x = " + repeat("- ", E - 1) + "1;")},
      // E terms: E - 1 binary nodes folded over the first.
      {"chain", mainWith("x = 1" + repeat(" + 1", E - 1) + ";")},
      {"parens", mainWith("x = " + repeat("(", E) + "1" + repeat(")", E) +
                          ";")},
      // E - 1 conditionals nested in the else position.
      {"ternary", mainWith("x = " + repeat("x ? 1 : ", E - 1) + "1;")},
      // The desugared x = x + (...) adds a level over the value's chain.
      {"compound", mainWith("x += 1" + repeat(" + 1", E - 2) + ";")},
      // The subscript node adds a level over its index's chain.
      {"subscript", mainWith("a[0" + repeat(" + 0", E - 2) + "] = 1;")},
      // S - 1 nested blocks around a statement at level S.
      {"blocks", mainWith(repeat("{", S - 1) + "x = 2;" + repeat("}", S - 1))},
      // S - 1 unbraced ifs, each the body of the one before.
      {"if_chain", mainWith(repeat("if (x) ", S - 1) + "x = 3;")},
      // An if and S - 2 else-ifs, each nested in the else before.
      {"else_if_chain", mainWith("if (x) x = 4;" +
                                 repeat(" else if (x) x = 4;", S - 2))},
  };
}

} // namespace spt::nesting_programs

#endif // SPT_TESTS_NESTINGPROGRAMS_H

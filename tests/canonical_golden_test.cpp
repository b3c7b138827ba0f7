//===- tests/canonical_golden_test.cpp - Pinned canonical reprints --------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Golden digests of the request front end: every input below is parsed
// with Parser and reprinted with programToSource, and each line of
// tests/goldens/canonical.golden holds the fnv1a of that canonical text
// followed by the parser's joined errors() for one input set. The batch
// server keys its cache and its quarantine ledger on the canonical text,
// so a lexer, parser or printer change must leave this file untouched.
//
// Input sets:
//   - generator seeds 1..100 in the default shape and in perfbench's
//     serve_cold shape (MinLoops 2, MaxLoops 3, MaxStmtsPerBody 5,
//     MaxTrip 100), one line per program;
//   - the ten workloads and the seed corpus (tests/corpus), one line each;
//   - ten Mutator outputs of every corpus program and of generator seeds
//     1..20, one line per base program;
//   - every prefix of a few generated programs, one line per program.
//     These give syntax errors only: the programs are chosen to contain
//     no '.', and the test checks that no prefix lexes to an Error token,
//     so the lines stay valid when lexical diagnostics change.
//
// To refresh after an intentional change to the canonical form:
//
//   UPDATE_GOLDENS=1 ./build/tests/canonical_golden_test
//
// then review `git diff tests/goldens/canonical.golden`.
//
//===----------------------------------------------------------------------===//

#include "lang/AstPrinter.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/ProgramGenerator.h"
#include "support/Hash.h"
#include "testing/Mutator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

using namespace spt;

namespace {

const char *const GoldenFile = "/tests/goldens/canonical.golden";

const char *const CorpusFiles[] = {"calls_mixed", "fp_stencil", "histogram",
                                   "paper_example", "while_break_scan"};

std::string hex16(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

GeneratorOptions serveColdShape() {
  GeneratorOptions GO;
  GO.MinLoops = 2;
  GO.MaxLoops = 3;
  GO.MaxStmtsPerBody = 5;
  GO.MaxTrip = 100;
  return GO;
}

std::string readCorpus(const char *Name) {
  std::ifstream In(std::string(SPT_SOURCE_DIR) + "/tests/corpus/" + Name +
                   ".sptc");
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The canonical reprint of \p Source, then its errors, one per line.
std::string frontEndText(const std::string &Source) {
  Parser P(Source);
  const ProgramAst Ast = P.parseProgram();
  std::string Out = programToSource(Ast);
  Out += "\n-- errors\n";
  for (const std::string &E : P.errors()) {
    Out += E;
    Out += '\n';
  }
  return Out;
}

std::string digestOf(const std::string &Source) {
  return hex16(fnv1a(frontEndText(Source)));
}

/// Golden lines keyed by input set.
using GoldenMap = std::map<std::string, std::string>;

GoldenMap readGoldens() {
  GoldenMap G;
  std::ifstream In(std::string(SPT_SOURCE_DIR) + GoldenFile);
  std::string Key, Digest;
  while (In >> Key >> Digest)
    G[Key] = Digest;
  return G;
}

void writeGoldens(const GoldenMap &G) {
  const std::string Path = std::string(SPT_SOURCE_DIR) + GoldenFile;
  std::ofstream Out(Path, std::ios::binary);
  ASSERT_TRUE(Out.good()) << "cannot write " << Path;
  for (const auto &[Key, Digest] : G)
    Out << Key << " " << Digest << "\n";
}

void checkDigests(const GoldenMap &Got) {
  if (std::getenv("UPDATE_GOLDENS")) {
    GoldenMap All = readGoldens();
    for (const auto &[Key, Digest] : Got)
      All[Key] = Digest;
    writeGoldens(All);
    return;
  }
  const GoldenMap Want = readGoldens();
  ASSERT_FALSE(Want.empty())
      << SPT_SOURCE_DIR << GoldenFile
      << " missing or empty; run with UPDATE_GOLDENS=1 to create it";
  for (const auto &[Key, Digest] : Got) {
    auto It = Want.find(Key);
    ASSERT_NE(It, Want.end()) << "no golden digest for '" << Key << "'";
    EXPECT_EQ(Digest, It->second)
        << "'" << Key << "' changed. If intentional, refresh "
        << "with\n  UPDATE_GOLDENS=1 ./build/tests/canonical_golden_test\n"
        << "and review git diff tests/goldens/canonical.golden.";
  }
}

std::string seedKey(const char *Set, uint64_t Seed) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%s/%03" PRIu64, Set, Seed);
  return Buf;
}

/// Digest of the front end over ten mutants of \p Source.
std::string mutantsDigest(const std::string &Source) {
  std::string All;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    All += frontEndText(mutateSource(Source, Seed).Source);
    All += "\n== next mutant\n";
  }
  return hex16(fnv1a(All));
}

/// True when some token of \p Source lexes to an Error token.
bool hasLexicalError(const std::string &Source) {
  Lexer L(Source);
  for (;;) {
    const Token T = L.next();
    if (T.Kind == TokKind::Error)
      return true;
    if (T.Kind == TokKind::Eof)
      return false;
  }
}

/// Digest of the front end over every prefix of \p Source, the empty one
/// and the whole text included.
std::string prefixesDigest(const std::string &Source) {
  std::string All;
  for (size_t Len = 0; Len <= Source.size(); ++Len) {
    const std::string Prefix = Source.substr(0, Len);
    EXPECT_FALSE(hasLexicalError(Prefix))
        << "prefix of length " << Len << " has a lexical error";
    All += digestOf(Prefix);
    All += '\n';
  }
  return hex16(fnv1a(All));
}

} // namespace

TEST(CanonicalGolden, GeneratedDefaultShape) {
  GoldenMap Got;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed)
    Got[seedKey("gen_default", Seed)] = digestOf(generateProgram(Seed));
  checkDigests(Got);
}

TEST(CanonicalGolden, GeneratedServeColdShape) {
  GoldenMap Got;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed)
    Got[seedKey("gen_cold", Seed)] =
        digestOf(generateProgram(Seed, serveColdShape()));
  checkDigests(Got);
}

TEST(CanonicalGolden, Workloads) {
  GoldenMap Got;
  for (const Workload &W : allWorkloads())
    Got["workload/" + W.Name] = digestOf(W.Source);
  checkDigests(Got);
}

TEST(CanonicalGolden, SeedCorpus) {
  GoldenMap Got;
  for (const char *Name : CorpusFiles) {
    const std::string Source = readCorpus(Name);
    ASSERT_FALSE(Source.empty()) << "cannot read corpus program " << Name;
    Got[std::string("corpus/") + Name] = digestOf(Source);
  }
  checkDigests(Got);
}

TEST(CanonicalGolden, MutatorOutputs) {
  GoldenMap Got;
  for (const char *Name : CorpusFiles)
    Got[std::string("mutants/corpus/") + Name] =
        mutantsDigest(readCorpus(Name));
  for (uint64_t Seed = 1; Seed <= 20; ++Seed)
    Got[seedKey("mutants/gen_default", Seed)] =
        mutantsDigest(generateProgram(Seed));
  checkDigests(Got);
}

TEST(CanonicalGolden, EveryPrefixOfGeneratedPrograms) {
  GoldenMap Got;
  // The first three programs of each shape that contain no '.': a prefix
  // ending in "3." would lex '.' as a bad character.
  for (const bool Cold : {false, true}) {
    unsigned Taken = 0;
    for (uint64_t Seed = 1; Taken != 3; ++Seed) {
      const std::string Source =
          Cold ? generateProgram(Seed, serveColdShape())
               : generateProgram(Seed);
      if (Source.find('.') != std::string::npos)
        continue;
      Got[seedKey(Cold ? "prefixes/gen_cold" : "prefixes/gen_default",
                  Seed)] = prefixesDigest(Source);
      ++Taken;
    }
  }
  checkDigests(Got);
}

//===- tests/testing_test.cpp - Fuzzing subsystem unit tests -----------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Unit and integration tests for src/testing/: the canonical AST printer
// the mutators and the reducer rewrite through, the mutation operators,
// the oracle suite, corpus management, the delta-debugging reducer, and
// the fuzzer's known-bad self-check (the subsystem's acceptance bar: a
// planted miscompile must be found and reduced to a tiny reproducer,
// deterministically).
//
//===----------------------------------------------------------------------===//

#include "testing/Corpus.h"
#include "testing/Fuzzer.h"
#include "testing/Mutator.h"
#include "testing/Oracles.h"
#include "testing/Reducer.h"

#include "interp/Interp.h"
#include "ir/IR.h"
#include "lang/AstPrinter.h"
#include "lang/Frontend.h"
#include "lang/Parser.h"
#include "lang/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <set>

using namespace spt;

namespace {

ProgramAst parseOrDie(const std::string &Source) {
  Parser P(Source);
  ProgramAst Ast = P.parseProgram();
  EXPECT_TRUE(P.errors().empty())
      << (P.errors().empty() ? "" : P.errors()[0]) << "\n"
      << Source;
  return Ast;
}

bool parses(const std::string &Source) {
  Parser P(Source);
  (void)P.parseProgram();
  return P.errors().empty();
}

} // namespace

//===----------------------------------------------------------------------===//
// AstPrinter: the canonical printer everything else rewrites through.
//===----------------------------------------------------------------------===//

TEST(AstPrinterTest, PrintIsAFixpointAfterOneTrip) {
  for (uint64_t Seed = 1; Seed != 16; ++Seed) {
    const std::string S0 = generateProgram(Seed);
    const std::string P1 = programToSource(parseOrDie(S0));
    const std::string P2 = programToSource(parseOrDie(P1));
    EXPECT_EQ(P1, P2) << "seed " << Seed;
  }
}

TEST(AstPrinterTest, ReprintPreservesSemantics) {
  for (uint64_t Seed = 1; Seed != 11; ++Seed) {
    const std::string S0 = generateProgram(Seed);
    const std::string P1 = programToSource(parseOrDie(S0));
    auto M0 = compileOrDie(S0);
    auto M1 = compileOrDie(P1);
    RunOutcome O0 = runFunction(*M0, "main");
    RunOutcome O1 = runFunction(*M1, "main");
    EXPECT_EQ(O0.Result.I, O1.Result.I) << "seed " << Seed;
    EXPECT_EQ(O0.Output, O1.Output) << "seed " << Seed;
  }
}

TEST(AstPrinterTest, CountStatementsMatchesTheDocumentedRule) {
  // Decl i, Decl s, Assign s, For, body Assign, Return = 6 statements;
  // blocks and the for-header Init/Step clauses do not count.
  const char *Source = "int main() {\n"
                       "  int i; int s;\n"
                       "  s = 0;\n"
                       "  for (i = 0; i < 4; i = i + 1) { s = s + i; }\n"
                       "  return s;\n"
                       "}\n";
  EXPECT_EQ(countStatements(parseOrDie(Source)), 6u);
}

//===----------------------------------------------------------------------===//
// Mutator.
//===----------------------------------------------------------------------===//

TEST(MutatorTest, DeterministicPerSeed) {
  const std::string Base = generateProgram(11);
  MutationOutcome A = mutateSource(Base, 42);
  MutationOutcome B = mutateSource(Base, 42);
  EXPECT_EQ(A.Source, B.Source);
  EXPECT_EQ(A.Applied, B.Applied);
}

TEST(MutatorTest, DifferentSeedsExploreDifferentMutants) {
  const std::string Base = generateProgram(11);
  std::set<std::string> Distinct;
  for (uint64_t Seed = 1; Seed != 9; ++Seed)
    Distinct.insert(mutateSource(Base, Seed).Source);
  EXPECT_GT(Distinct.size(), 1u);
}

TEST(MutatorTest, MutantsAlwaysParseAndMostlyCompile) {
  unsigned Compiling = 0, Total = 0;
  for (uint64_t Seed = 1; Seed != 7; ++Seed) {
    const std::string Base = generateProgram(Seed);
    for (uint64_t MSeed = 1; MSeed != 6; ++MSeed) {
      MutationOutcome Out = mutateSource(Base, Seed * 100 + MSeed);
      EXPECT_TRUE(parses(Out.Source))
          << "seed " << Seed << " mutation " << MSeed;
      ++Total;
      if (compileSource(Out.Source).ok())
        ++Compiling;
    }
  }
  // Deleting a declaration can legitimately break compilation; most
  // mutants must still compile or the fuzzer wastes its budget.
  EXPECT_GT(Compiling * 10, Total * 4)
      << Compiling << " of " << Total << " mutants compile";
}

TEST(KnownBadMutationTest, FlipsAnAddInsideALoopBody) {
  const char *Source = "int main() {\n"
                       "  int i; int s;\n"
                       "  s = 0;\n"
                       "  for (i = 0; i < 10; i = i + 1) { s = s + 3; }\n"
                       "  return s;\n"
                       "}\n";
  KnownBadOutcome Out = applyKnownBadMutation(Source);
  ASSERT_TRUE(Out.Applied);
  EXPECT_NE(Out.Source, Source);

  auto Base = compileOrDie(Source);
  auto Bad = compileOrDie(Out.Source);
  EXPECT_EQ(runFunction(*Base, "main").Result.I, 30);
  EXPECT_EQ(runFunction(*Bad, "main").Result.I, -30)
      << "the + in the loop body should have become a -";

  // Deterministic: same flip every time.
  EXPECT_EQ(applyKnownBadMutation(Source).Source, Out.Source);
}

TEST(KnownBadMutationTest, NeverTouchesTheForHeaderStep) {
  // The only Add is the i = i + 1 step; flipping it would make the loop
  // diverge, so the mutation must refuse to apply.
  const char *Source = "int main() {\n"
                       "  int i; int s;\n"
                       "  s = 100;\n"
                       "  for (i = 0; i < 10; i = i + 1) { s = s * 1; }\n"
                       "  return s;\n"
                       "}\n";
  EXPECT_FALSE(applyKnownBadMutation(Source).Applied);
}

TEST(KnownBadMutationTest, NoLoopMeansNoApplication) {
  EXPECT_FALSE(applyKnownBadMutation("int main() { return 1 + 2; }").Applied);
}

//===----------------------------------------------------------------------===//
// Oracle suite.
//===----------------------------------------------------------------------===//

TEST(OracleSuiteTest, CatalogueHasTwelveDistinctOracles) {
  const auto &Cat = oracleCatalogue();
  ASSERT_EQ(Cat.size(), 12u);
  std::set<std::string> Names;
  for (const OracleInfo &O : Cat) {
    Names.insert(O.Name);
    EXPECT_FALSE(std::string(O.Description).empty()) << O.Name;
  }
  EXPECT_EQ(Names.size(), 12u);
  EXPECT_TRUE(Names.count("interp"));
  EXPECT_TRUE(Names.count("interp-decode-diff"));
  EXPECT_TRUE(Names.count("chaos"));
  EXPECT_TRUE(Names.count("report-diff"));
  EXPECT_TRUE(Names.count("cache-diff"));
  EXPECT_TRUE(Names.count("kway-diff"));
  EXPECT_TRUE(Names.count("profile-diff"));
}

TEST(OracleSuiteTest, PassesOnGeneratedPrograms) {
  for (uint64_t Seed : {1ull, 2ull, 3ull}) {
    OracleRunReport R = runOracleSuite(generateProgram(Seed));
    ASSERT_TRUE(R.Compiled) << "seed " << Seed << ": " << R.FrontendError;
    ASSERT_TRUE(R.Terminated) << "seed " << Seed;
    const OracleResult *F = R.firstFailure();
    EXPECT_TRUE(R.allPassed())
        << "seed " << Seed << ": " << (F ? F->Oracle + ": " + F->Detail : "");
    EXPECT_FALSE(R.Features.empty()) << "seed " << Seed;
    for (uint32_t Feat : R.Features)
      EXPECT_FALSE(featureName(Feat).empty());
  }
}

TEST(OracleSuiteTest, OnlyFilterRestrictsTheRun) {
  OracleOptions OO;
  OO.Only = {"interp"};
  OracleRunReport R = runOracleSuite(generateProgram(4), OO);
  ASSERT_TRUE(R.Compiled && R.Terminated);
  bool SawInterp = false;
  for (const OracleResult &Res : R.Results) {
    EXPECT_EQ(Res.Oracle, "interp");
    SawInterp = true;
  }
  EXPECT_TRUE(SawInterp);
}

TEST(OracleSuiteTest, DetectsThePlantedKnownBadMiscompile) {
  // Across a handful of generated programs the planted flip must divert
  // at least one differential oracle; programs without a qualifying site
  // (or where the flip is semantically dead) may legitimately pass.
  OracleOptions OO;
  OO.InjectKnownBad = true;
  unsigned Caught = 0;
  for (uint64_t Seed = 1; Seed != 11; ++Seed) {
    OracleRunReport R = runOracleSuite(generateProgram(Seed), OO);
    if (!R.Compiled || !R.Terminated)
      continue;
    if (!R.allPassed())
      ++Caught;
  }
  EXPECT_GT(Caught, 0u) << "no oracle noticed the planted miscompile";
}

TEST(OracleSuiteTest, DeterministicForAFixedSeed) {
  const std::string Source = generateProgram(6);
  OracleRunReport A = runOracleSuite(Source);
  OracleRunReport B = runOracleSuite(Source);
  ASSERT_EQ(A.Results.size(), B.Results.size());
  for (size_t I = 0; I != A.Results.size(); ++I) {
    EXPECT_EQ(A.Results[I].Oracle, B.Results[I].Oracle);
    EXPECT_EQ(static_cast<int>(A.Results[I].Status),
              static_cast<int>(B.Results[I].Status));
    EXPECT_EQ(A.Results[I].Detail, B.Results[I].Detail);
  }
  EXPECT_EQ(A.Features, B.Features);
}

//===----------------------------------------------------------------------===//
// Corpus.
//===----------------------------------------------------------------------===//

TEST(CorpusTest, RetainsOnlyNovelCoverage) {
  Corpus C;
  EXPECT_TRUE(C.addIfNovel("int main() { return 1; }", {1, 2}));
  // Identical content: rejected regardless of features.
  EXPECT_FALSE(C.addIfNovel("int main() { return 1; }", {3}));
  // New content, already-covered features: rejected.
  EXPECT_FALSE(C.addIfNovel("int main() { return 2; }", {1, 2}));
  // New content, one new feature: retained.
  EXPECT_TRUE(C.addIfNovel("int main() { return 3; }", {2, 7}));
  EXPECT_EQ(C.size(), 2u);
  EXPECT_TRUE(C.covered().count(1) && C.covered().count(2) &&
              C.covered().count(7));
  EXPECT_FALSE(C.covered().count(3));
}

TEST(CorpusTest, ForceRetainsSeedsWithoutNovelCoverage) {
  Corpus C;
  EXPECT_TRUE(C.addIfNovel("int main() { return 1; }", {1}, /*Force=*/true));
  EXPECT_TRUE(C.addIfNovel("int main() { return 2; }", {1}, /*Force=*/true));
  // Even forced, exact duplicates stay out.
  EXPECT_FALSE(C.addIfNovel("int main() { return 1; }", {1}, /*Force=*/true));
  EXPECT_EQ(C.size(), 2u);
}

TEST(CorpusTest, LoadsTheSeedCorpusDirectory) {
  Corpus C;
  size_t N = C.loadDirectory(SPT_SOURCE_DIR "/tests/corpus");
  EXPECT_GE(N, 5u);
  EXPECT_EQ(C.size(), N);
  for (const CorpusEntry &E : C.entries())
    EXPECT_TRUE(parses(E.Source));
}

//===----------------------------------------------------------------------===//
// Reducer.
//===----------------------------------------------------------------------===//

TEST(ReducerTest, ShrinksToTheMarkedStatement) {
  // A predicate any candidate satisfies iff it still parses and carries
  // the marker constant: the reducer should throw almost everything else
  // away.
  const std::string Base = generateProgram(3);
  ASSERT_NE(Base.find("for"), std::string::npos);
  const std::string Marked =
      "int scratch[64];\n" + Base.substr(0, Base.rfind('}')) +
      "  scratch[0] = 987654;\n}\n";
  ASSERT_TRUE(parses(Marked));

  auto StillFails = [](const std::string &Candidate) {
    return parses(Candidate) &&
           Candidate.find("987654") != std::string::npos;
  };
  ReduceOutcome Out = reduceProgram(Marked, StillFails);
  EXPECT_TRUE(StillFails(Out.Source));
  EXPECT_LE(Out.StatementCount, 3u) << Out.Source;
  EXPECT_GT(Out.CandidatesTried, 0u);

  // Bit-for-bit deterministic.
  EXPECT_EQ(reduceProgram(Marked, StillFails).Source, Out.Source);
}

TEST(ReducerTest, RejectsCandidatesThatStopFailing) {
  // The predicate pins the full marker chain; the reducer must keep every
  // statement the chain flows through.
  const char *Source = "int out[4];\n"
                       "int main() {\n"
                       "  int a; int b;\n"
                       "  a = 123451;\n"
                       "  b = a + 1;\n"
                       "  out[0] = b;\n"
                       "  return b;\n"
                       "}\n";
  auto StillFails = [](const std::string &Candidate) {
    if (!parses(Candidate))
      return false;
    CompileResult R = compileSource(Candidate);
    if (!R.ok())
      return false;
    return runFunction(*R.M, "main").Result.I == 123452;
  };
  ASSERT_TRUE(StillFails(Source));
  ReduceOutcome Out = reduceProgram(Source, StillFails);
  EXPECT_TRUE(StillFails(Out.Source));
  // a's declaration+assignment, b's, and the return must all survive.
  EXPECT_GE(Out.StatementCount, 4u);
}

//===----------------------------------------------------------------------===//
// Fuzzer: clean smoke run and the known-bad acceptance self-check.
//===----------------------------------------------------------------------===//

TEST(FuzzerTest, ShortSmokeRunIsCleanAndKeepsStats) {
  FuzzOptions Opts;
  Opts.Seed = 7;
  Opts.Programs = 12;
  Opts.CorpusDir = SPT_SOURCE_DIR "/tests/corpus";
  Opts.Generator.MaxLoops = 3;
  Opts.Generator.MaxStmtsPerBody = 6;
  Opts.Generator.MaxTrip = 100;
  Opts.Oracle.MaxSteps = 8000000ull;
  FuzzOutcome Out = runFuzz(Opts);
  EXPECT_FALSE(Out.FoundDivergence)
      << Out.FailingOracle << ": " << Out.FailureDetail << "\n"
      << Out.FailingSource;
  EXPECT_EQ(Out.Stats.Executed, 12u);
  EXPECT_GT(Out.Stats.CoveredFeatures, 0u);
  EXPECT_GT(Out.Stats.Generated + Out.Stats.Mutated, 0u);
}

TEST(FuzzerTest, KnownBadSelfCheckFindsAndReducesTheMiscompile) {
  FuzzOptions Opts;
  Opts.Seed = 1;
  Opts.Programs = 10;
  FuzzOutcome Out = runKnownBadSelfCheck(Opts);
  ASSERT_TRUE(Out.FoundDivergence)
      << "the planted miscompile was never detected";
  EXPECT_FALSE(Out.FailingOracle.empty());
  ASSERT_FALSE(Out.ReducedSource.empty());
  EXPECT_GT(Out.ReducedStatements, 0u);
  EXPECT_LE(Out.ReducedStatements, 15u)
      << "reducer left too much behind:\n"
      << Out.ReducedSource;
  // The reduced reproducer still exhibits the planted divergence.
  OracleOptions OO;
  OO.InjectKnownBad = true;
  OracleRunReport R = runOracleSuite(Out.ReducedSource, OO);
  ASSERT_TRUE(R.Compiled && R.Terminated);
  EXPECT_FALSE(R.allPassed());
}

//===- tests/report_golden_test.cpp - Pinned compile-report digests -------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Golden digests of whole compiles over generated programs in the shape
// of perfbench's serve_cold batches (generator seeds 1..200; MinLoops 2,
// MaxLoops 3, MaxStmtsPerBody 5, MaxTrip 100; a 2,000,000-step profiling
// budget). Each seed is compiled in basic, best and anticipated mode for
// a two-core machine, and once more in best mode fed the measured
// dependence-profile artifact of the same program (best_artifact_c2,
// measured under the same step budget). The fnv1a of each
// renderReportDeterministic is compared with tests/goldens/reports.golden.
// To refresh after an intentional change to what the compiler decides:
//
//   UPDATE_GOLDENS=1 ./build/tests/report_golden_test
//
// then review `git diff tests/goldens/reports.golden`.
//
//===----------------------------------------------------------------------===//

#include "driver/SptCompiler.h"
#include "lang/Frontend.h"
#include "lang/ProgramGenerator.h"
#include "profile/DepProfiler.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

using namespace spt;

namespace {

const char *const GoldenFile = "/tests/goldens/reports.golden";

/// Seeds 1..NumSeeds, split into NumChunks tests so ctest -j spreads them.
constexpr uint64_t NumSeeds = 200;
constexpr uint64_t NumChunks = 8;

std::string hex16(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

/// The profiling step budget of every compile and artifact.
constexpr uint64_t ProfileSteps = 2000000;

/// Golden lines keyed by "<program> <run>".
using GoldenMap = std::map<std::string, std::string>;

GoldenMap readGoldens() {
  GoldenMap G;
  std::ifstream In(std::string(SPT_SOURCE_DIR) + GoldenFile);
  std::string Program, Run, Digest;
  while (In >> Program >> Run >> Digest)
    G[Program + " " + Run] = Digest;
  return G;
}

void writeGoldens(const GoldenMap &G) {
  const std::string Path = std::string(SPT_SOURCE_DIR) + GoldenFile;
  std::ofstream Out(Path, std::ios::binary);
  ASSERT_TRUE(Out.good()) << "cannot write " << Path;
  for (const auto &[Key, Digest] : G)
    Out << Key << " " << Digest << "\n";
}

GoldenMap digestsFor(uint64_t Seed) {
  GeneratorOptions GO; // The serve_cold shape.
  GO.MinLoops = 2;
  GO.MaxLoops = 3;
  GO.MaxStmtsPerBody = 5;
  GO.MaxTrip = 100;
  const std::string Source = generateProgram(Seed, GO);
  char Name[16];
  std::snprintf(Name, sizeof(Name), "gen%03" PRIu64, Seed);
  GoldenMap Out;
  for (CompilationMode Mode : {CompilationMode::Basic, CompilationMode::Best,
                               CompilationMode::Anticipated}) {
    auto M = compileOrDie(Source);
    SptCompilerOptions Opts = SptCompilerOptions().withMode(Mode).withCores(2);
    Opts.ProfileMaxSteps = ProfileSteps;
    const CompilationReport Report = compileSpt(*M, Opts);
    Out[std::string(Name) + " " + compilationModeName(Mode) + "_c2"] =
        hex16(fnv1a(renderReportDeterministic(Report)));
  }

  auto M = compileOrDie(Source);
  DepProfilerOptions DPO;
  DPO.MaxSteps = ProfileSteps;
  StatusOr<DepProfileArtifact> A = profileDependenceArtifact(*M, DPO);
  EXPECT_TRUE(A.isOk()) << Name << ": " << A.message();
  if (A.isOk()) {
    SptCompilerOptions Opts =
        SptCompilerOptions::best().withCores(2).withProfileArtifact(
            std::make_shared<const DepProfileArtifact>(A.value()));
    Opts.ProfileMaxSteps = ProfileSteps;
    Out[std::string(Name) + " best_artifact_c2"] =
        hex16(fnv1a(renderReportDeterministic(compileSpt(*M, Opts))));
  }
  return Out;
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
        << "with\n  UPDATE_GOLDENS=1 ./build/tests/report_golden_test\n"
        << "and review git diff tests/goldens/reports.golden.";
  }
}

class ServeColdReportGolden : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(ServeColdReportGolden, MatchesPinnedDigests) {
  GoldenMap Got;
  for (uint64_t Seed = 1 + GetParam(); Seed <= NumSeeds; Seed += NumChunks)
    Got.merge(digestsFor(Seed));
  checkDigests(Got);
}

INSTANTIATE_TEST_SUITE_P(Chunks, ServeColdReportGolden,
                         ::testing::Range<uint64_t>(0, NumChunks));

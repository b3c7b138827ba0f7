//===- tests/profile_golden_test.cpp - Pinned profiling-run digests -------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Golden digests of whole profiling runs. For each of the ten workloads and
// the five seed-corpus programs, main() is profiled under the three
// configurations the compiler driver uses, and the fnv1a of the bundle's
// canonical dump (testing/ProfileDump.h: edges, per-loop activations,
// iterations, statement executions and dependence pairs, value stats,
// instruction count, result and output) is compared with
// tests/goldens/profiles.golden:
//
//   edges        block and edge counts only (basic mode)
//   deps_values  edges + dependences + values, every int-defining
//                statement watched (the initial best/anticipated run)
//   deps         edges + dependences (the re-profile after SVP)
//
// Each workload also pins the serializeDepProfile text hash of its
// profileDependenceArtifact. Any change to what the profiler measures
// shows up here as a changed digest.
//
// To refresh after an intentional change:
//
//   UPDATE_GOLDENS=1 ./build/tests/profile_golden_test
//
// then review `git diff tests/goldens/profiles.golden`.
//
//===----------------------------------------------------------------------===//

#include "lang/Frontend.h"
#include "profile/DepProfiler.h"
#include "profile/Profiler.h"
#include "support/Hash.h"
#include "testing/ProfileDump.h"
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

const char *const GoldenFile = "/tests/goldens/profiles.golden";

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string hex16(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

/// Golden lines keyed by "<program> <what>".
using GoldenMap = std::map<std::string, std::string>;

GoldenMap readGoldens() {
  GoldenMap G;
  std::istringstream In(readFile(std::string(SPT_SOURCE_DIR) + GoldenFile));
  std::string Program, What, Digest;
  while (In >> Program >> What >> Digest)
    G[Program + " " + What] = Digest;
  return G;
}

void writeGoldens(const GoldenMap &G) {
  const std::string Path = std::string(SPT_SOURCE_DIR) + GoldenFile;
  std::ofstream Out(Path, std::ios::binary);
  ASSERT_TRUE(Out.good()) << "cannot write " << Path;
  for (const auto &[Key, Digest] : G)
    Out << Key << " " << Digest << "\n";
}

/// The three driver configurations, by golden label.
std::vector<std::pair<std::string, ProfilerOptions>>
driverConfigs(const Module &M) {
  ProfilerOptions Edges;
  Edges.CollectDeps = false;
  Edges.CollectValues = false;

  ProfilerOptions DepsValues;
  DepsValues.ValueWatch = allIntDefinitions(M);

  ProfilerOptions Deps;
  Deps.CollectValues = false;
  return {{"edges", Edges}, {"deps_values", DepsValues}, {"deps", Deps}};
}

/// Digests of one program's profiling runs, keyed like the golden file.
GoldenMap digestsFor(const std::string &Program, const Module &M,
                     bool WithArtifact) {
  GoldenMap Out;
  for (const auto &[Label, Opts] : driverConfigs(M)) {
    const ProfileBundle B = profileRun(M, "main", {}, Opts);
    EXPECT_TRUE(B.Completed) << Program << " " << Label << ": " << B.Error;
    Out[Program + " " + Label] = hex16(fnv1a(dumpProfileBundle(M, B)));
  }
  if (WithArtifact) {
    DepProfilerOptions DPO;
    DPO.Workload = Program;
    StatusOr<DepProfileArtifact> A = profileDependenceArtifact(M, DPO);
    EXPECT_TRUE(static_cast<bool>(A)) << Program << ": " << A.message();
    if (A)
      Out[Program + " artifact"] =
          hex16(fnv1a(serializeDepProfile(A.value())));
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
        << "profile of '" << Key << "' changed. If intentional, refresh with\n"
        << "  UPDATE_GOLDENS=1 ./build/tests/profile_golden_test\n"
        << "and review git diff tests/goldens/profiles.golden.";
  }
}

std::vector<std::string> workloadNames() {
  std::vector<std::string> Names;
  for (const Workload &W : allWorkloads())
    Names.push_back(W.Name);
  return Names;
}

class WorkloadProfileGolden : public ::testing::TestWithParam<std::string> {};
class CorpusProfileGolden : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(WorkloadProfileGolden, MatchesPinnedDigests) {
  auto M = compileWorkload(workloadByName(GetParam()));
  checkDigests(digestsFor(GetParam(), *M, /*WithArtifact=*/true));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadProfileGolden,
                         ::testing::ValuesIn(workloadNames()));

TEST_P(CorpusProfileGolden, MatchesPinnedDigests) {
  const std::string Source = readFile(std::string(SPT_SOURCE_DIR) +
                                      "/tests/corpus/" + GetParam() + ".sptc");
  ASSERT_FALSE(Source.empty());
  auto M = compileOrDie(Source);
  checkDigests(digestsFor(GetParam(), *M, /*WithArtifact=*/false));
}

INSTANTIATE_TEST_SUITE_P(SeedCorpus, CorpusProfileGolden,
                         ::testing::Values("calls_mixed", "fp_stencil",
                                           "histogram", "paper_example",
                                           "while_break_scan"));

//===- tests/sim_golden_test.cpp - Pinned simulator-result digests --------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Golden digests of whole simulations, run the way the fig14 experiment
// runs them. For each of the ten workloads and the five seed-corpus
// programs:
//
//   seq          cleanupModule + runSequential on the base module
//   <mode>_c<N>  compileSpt in basic/best/anticipated mode for an N-core
//                machine, then runSpt on that machine, for N = 2 and 4
//   <mode>_c<N>_report
//                the fnv1a of that compile's renderReportDeterministic
//
// Each run is reduced to the fnv1a of a pointer-free dump of every result
// field except Perf: subticks, instructions, the result value, program
// output, MemoryHash, the branch predictor totals (sequential), every
// per-loop record (keyed by function name and loop id) and the per-core
// chain statistics (SPT). The digests are compared with
// tests/goldens/sims.golden, so any change to simulated timing or to a
// speculation counter shows up here, and so does any change to a compile
// report.
//
// To refresh after an intentional change to the machine model:
//
//   UPDATE_GOLDENS=1 ./build/tests/sim_golden_test
//
// then review `git diff tests/goldens/sims.golden`.
//
//===----------------------------------------------------------------------===//

#include "driver/SptCompiler.h"
#include "lang/Frontend.h"
#include "sim/SeqSim.h"
#include "sim/SptSim.h"
#include "support/Hash.h"
#include "transform/Cleanup.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

using namespace spt;

namespace {

const char *const GoldenFile = "/tests/goldens/sims.golden";

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

/// Golden lines keyed by "<program> <run>".
using GoldenMap = std::map<std::string, std::string>;

GoldenMap readGoldens() {
  GoldenMap G;
  std::istringstream In(readFile(std::string(SPT_SOURCE_DIR) + GoldenFile));
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

/// The fields every simulator result shares.
template <class SimResult>
void dumpCommon(std::ostringstream &OS, const SimResult &R) {
  OS << "subticks " << R.Subticks << "\ninstrs " << R.Instrs << "\nresult "
     << R.Result.I << "\nmemory " << R.MemoryHash << "\noutput "
     << R.Output.size() << " " << R.Output << "\n";
}

std::string dumpSeq(const SeqSimResult &R) {
  std::ostringstream OS;
  dumpCommon(OS, R);
  OS << "branches " << R.BranchLookups << " " << R.BranchMispredicts << "\n";
  // PerLoop is keyed by Function pointer; re-key by name for a stable order.
  std::map<std::pair<std::string, uint32_t>, LoopSeqStats> ByName;
  for (const auto &[Key, S] : R.PerLoop)
    ByName[{Key.first->name(), Key.second}] = S;
  for (const auto &[Key, S] : ByName)
    OS << "loop " << Key.first << " " << Key.second << " " << S.Subticks
       << " " << S.Instrs << " " << S.Iterations << " " << S.Activations
       << "\n";
  return OS.str();
}

std::string dumpSpt(const SptSimResult &R,
                    const std::map<int64_t, SptLoopDesc> &Loops) {
  std::ostringstream OS;
  dumpCommon(OS, R);
  for (const auto &[Id, S] : R.PerLoop)
    OS << "loop " << Loops.at(Id).F->name() << " " << Id << " " << S.Forks
       << " " << S.Joins << " " << S.KilledBeforeJoin << " " << S.Squashed
       << " " << S.ViolatedThreads << " " << S.SpecInstrs << " "
       << S.ReexecInstrs << " " << S.Iterations << " " << S.Subticks << "\n";
  for (size_t C = 0; C != R.CoreStats.size(); ++C)
    OS << "core " << C << " " << R.CoreStats[C].Forks << " "
       << R.CoreStats[C].Commits << " " << R.CoreStats[C].Squashes << "\n";
  return OS.str();
}

/// Digests of one program's fig14-style runs, keyed like the golden file.
/// \p Load returns a fresh copy of the program's module.
GoldenMap digestsFor(const std::string &Program,
                     const std::function<std::unique_ptr<Module>()> &Load) {
  GoldenMap Out;
  auto Base = Load();
  cleanupModule(*Base);
  const SeqSimResult Seq = runSequential(*Base, "main");
  Out[Program + " seq"] = hex16(fnv1a(dumpSeq(Seq)));

  const CompilationMode Modes[] = {CompilationMode::Basic,
                                   CompilationMode::Best,
                                   CompilationMode::Anticipated};
  for (CompilationMode Mode : Modes)
    for (uint32_t Cores : {2u, 4u}) {
      const std::string Run = std::string(compilationModeName(Mode)) + "_c" +
                              std::to_string(Cores);
      auto M = Load();
      const CompilationReport Report = compileSpt(
          *M, SptCompilerOptions().withMode(Mode).withCores(Cores));
      MachineConfig Machine;
      Machine.Cores = Cores;
      const SptSimResult Spt =
          runSpt(*M, "main", {}, Report.SptLoops, Machine);
      EXPECT_EQ(Spt.Result.I, Seq.Result.I) << Program << " " << Run;
      EXPECT_EQ(Spt.Output, Seq.Output) << Program << " " << Run;
      EXPECT_EQ(Spt.MemoryHash, Seq.MemoryHash) << Program << " " << Run;
      Out[Program + " " + Run] = hex16(fnv1a(dumpSpt(Spt, Report.SptLoops)));
      Out[Program + " " + Run + "_report"] =
          hex16(fnv1a(renderReportDeterministic(Report)));
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
        << "with\n  UPDATE_GOLDENS=1 ./build/tests/sim_golden_test\n"
        << "and review git diff tests/goldens/sims.golden.";
  }
}

std::vector<std::string> workloadNames() {
  std::vector<std::string> Names;
  for (const Workload &W : allWorkloads())
    Names.push_back(W.Name);
  return Names;
}

class WorkloadSimGolden : public ::testing::TestWithParam<std::string> {};
class CorpusSimGolden : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(WorkloadSimGolden, MatchesPinnedDigests) {
  const Workload &W = workloadByName(GetParam());
  checkDigests(digestsFor(GetParam(), [&] { return compileWorkload(W); }));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSimGolden,
                         ::testing::ValuesIn(workloadNames()));

TEST_P(CorpusSimGolden, MatchesPinnedDigests) {
  const std::string Source = readFile(std::string(SPT_SOURCE_DIR) +
                                      "/tests/corpus/" + GetParam() + ".sptc");
  ASSERT_FALSE(Source.empty());
  checkDigests(digestsFor(GetParam(), [&] { return compileOrDie(Source); }));
}

INSTANTIATE_TEST_SUITE_P(SeedCorpus, CorpusSimGolden,
                         ::testing::Values("calls_mixed", "fp_stencil",
                                           "histogram", "paper_example",
                                           "while_break_scan"));

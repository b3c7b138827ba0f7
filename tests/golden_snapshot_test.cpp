//===- tests/golden_snapshot_test.cpp - IR and DOT golden snapshots ----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Golden-text snapshots of the two renderers the rest of the tooling
// trusts for triage: the IR printer (ir/IRPrinter.h) and the dependence
// graph DOT export (analysis/DepGraphDot.h), taken over the paper's
// worked example and two workloads. Frontend lowering, the analysis
// pipeline, and both printers all feed these strings, so an uninspected
// diff here is an uninspected change to something the paper's figures
// depend on.
//
// To refresh after an intentional change:
//
//   UPDATE_GOLDENS=1 ./build/tests/golden_snapshot_test
//
// then review `git diff tests/goldens/` like any other code change. The
// files live in tests/goldens/ and are compared byte-for-byte.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/DepGraphDot.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "ir/IR.h"
#include "ir/IRPrinter.h"
#include "lang/Frontend.h"
#include "support/OStream.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace spt;

namespace {

std::string goldenPath(const std::string &Name) {
  return std::string(SPT_SOURCE_DIR) + "/tests/goldens/" + Name + ".golden";
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Byte-compares \p Actual against tests/goldens/<Name>.golden; with
/// UPDATE_GOLDENS set, rewrites the golden instead and passes.
void checkGolden(const std::string &Name, const std::string &Actual) {
  const std::string Path = goldenPath(Name);
  if (std::getenv("UPDATE_GOLDENS")) {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  const std::string Want = readFile(Path);
  ASSERT_FALSE(Want.empty())
      << Path << " missing or empty; run with UPDATE_GOLDENS=1 to create it";
  EXPECT_EQ(Actual, Want)
      << Name << " snapshot changed. If intentional, refresh with\n"
      << "  UPDATE_GOLDENS=1 ./build/tests/golden_snapshot_test\n"
      << "and review git diff tests/goldens/.";
}

/// The module text: arrays then functions, via the real printer.
std::string moduleSnapshot(const Module &M) {
  StringOStream OS;
  printModule(OS, M);
  return OS.str();
}

/// DOT text of every loop dependence graph of the module, in function
/// and loop-nest order — one digraph per loop, named f_loopN, so a new
/// or vanished loop shows up as a whole added/removed graph in the diff.
std::string dotSnapshot(const Module &M) {
  std::string Out;
  CallEffects Effects = CallEffects::compute(M);
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    const Function *F = M.function(static_cast<uint32_t>(FI));
    if (F->isExternal() || F->numBlocks() == 0)
      continue;
    CfgInfo Cfg = CfgInfo::compute(*F);
    LoopNest Nest = LoopNest::compute(*F, Cfg);
    CfgProbabilities Probs = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
    FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);
    for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI) {
      LoopDepGraph G = LoopDepGraph::build(M, *F, Cfg, *Nest.loop(LI), Freq,
                                           Effects);
      DotOptions Opts;
      Opts.Name = F->name() + "_loop" + std::to_string(LI);
      Out += depGraphToDot(M, G, Opts);
      Out += '\n';
    }
  }
  return Out;
}

std::unique_ptr<Module> compilePaperExample() {
  const std::string Source =
      readFile(std::string(SPT_SOURCE_DIR) + "/tests/corpus/paper_example.sptc");
  EXPECT_FALSE(Source.empty());
  CompileResult R = compileSource(Source);
  EXPECT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors[0]);
  return std::move(R.M);
}

} // namespace

TEST(GoldenSnapshotTest, PaperExampleIR) {
  checkGolden("paper_example_ir", moduleSnapshot(*compilePaperExample()));
}

TEST(GoldenSnapshotTest, PaperExampleDepGraphDot) {
  checkGolden("paper_example_dot", dotSnapshot(*compilePaperExample()));
}

TEST(GoldenSnapshotTest, GzipWorkloadIR) {
  auto M = compileWorkload(workloadByName("gzip"));
  checkGolden("gzip_ir", moduleSnapshot(*M));
}

TEST(GoldenSnapshotTest, GzipWorkloadDepGraphDot) {
  auto M = compileWorkload(workloadByName("gzip"));
  checkGolden("gzip_dot", dotSnapshot(*M));
}

TEST(GoldenSnapshotTest, McfWorkloadIR) {
  auto M = compileWorkload(workloadByName("mcf"));
  checkGolden("mcf_ir", moduleSnapshot(*M));
}

TEST(GoldenSnapshotTest, McfWorkloadDepGraphDot) {
  auto M = compileWorkload(workloadByName("mcf"));
  checkGolden("mcf_dot", dotSnapshot(*M));
}

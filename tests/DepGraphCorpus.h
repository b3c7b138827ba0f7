//===- tests/DepGraphCorpus.h - Loop set of the dependence-graph tests ----===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The loops depgraph_golden_test pins and depgraph_watch_test checks:
// every loop of the 10 workloads and of generator seeds 1..200 in
// perfbench's serve_cold shape (MinLoops 2, MaxLoops 3, MaxStmtsPerBody
// 5, MaxTrip 100), each program taken twice: as lowered, and after every
// innermost loop was unrolled x4. Frequencies come from the static branch
// heuristic, so no program runs.
//
//===----------------------------------------------------------------------===//

#ifndef SPT_TESTS_DEPGRAPHCORPUS_H
#define SPT_TESTS_DEPGRAPHCORPUS_H

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "ir/IR.h"
#include "lang/Frontend.h"
#include "lang/ProgramGenerator.h"
#include "transform/Unroll.h"
#include "workloads/Workloads.h"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace spt::depgraph_corpus {

inline constexpr uint64_t NumGeneratedSeeds = 200;

/// The workloads first, then the generated programs.
inline size_t numPrograms() {
  return allWorkloads().size() + NumGeneratedSeeds;
}

/// Name and freshly lowered module of corpus program \p Index.
inline std::pair<std::string, std::unique_ptr<Module>>
program(size_t Index) {
  const std::vector<Workload> &Suite = allWorkloads();
  if (Index < Suite.size())
    return {Suite[Index].Name, compileWorkload(Suite[Index])};
  const uint64_t Seed = Index - Suite.size() + 1;
  GeneratorOptions GO;
  GO.MinLoops = 2;
  GO.MaxLoops = 3;
  GO.MaxStmtsPerBody = 5;
  GO.MaxTrip = 100;
  char Name[16];
  std::snprintf(Name, sizeof(Name), "gen%03" PRIu64, Seed);
  return {Name, compileOrDie(generateProgram(Seed, GO))};
}

/// Unrolls every innermost loop of every defined function of \p M by 4,
/// re-analysing the function before each loop as the driver's stage A
/// does.
inline void unrollInnermostLoops(Module &M) {
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    Function &F = *M.function(static_cast<uint32_t>(FI));
    if (F.isExternal() || F.numBlocks() == 0)
      continue;
    std::vector<BlockId> Headers;
    {
      CfgInfo Cfg = CfgInfo::compute(F);
      LoopNest Nest = LoopNest::compute(F, Cfg);
      for (const Loop *L : Nest.innermostFirst())
        if (L->Children.empty())
          Headers.push_back(L->Header);
    }
    for (BlockId Header : Headers) {
      CfgInfo Cfg = CfgInfo::compute(F);
      LoopNest Nest = LoopNest::compute(F, Cfg);
      for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI)
        if (Nest.loop(LI)->Header == Header) {
          unrollLoop(F, *Nest.loop(LI), 4);
          break;
        }
    }
  }
}

/// One corpus loop with everything a graph build takes.
struct CorpusLoop {
  std::string Key; ///< "<program> <lowered|unrolled> <function>:<header>"
  const Module &M;
  const Function &F;
  const CfgInfo &Cfg;
  const Loop &L;
  const FreqInfo &Freq;
  const CallEffects &Effects;
};

/// Calls \p Fn(const std::string &Prefix, const Module &) for corpus
/// program \p Index lowered, then unrolled; Prefix is "<program>
/// <lowered|unrolled> ".
template <typename FnT> void forEachShape(size_t Index, FnT Fn) {
  for (bool Unroll : {false, true}) {
    auto [Name, M] = program(Index);
    if (Unroll)
      unrollInnermostLoops(*M);
    Fn(Name + (Unroll ? " unrolled " : " lowered "), *M);
  }
}

/// Calls \p Fn(const CorpusLoop &) for every loop of \p M in function
/// order, then loop order, keyed \p Prefix + "<function>:<header>".
template <typename FnT>
void forEachLoopOf(const std::string &Prefix, const Module &M, FnT Fn) {
  const CallEffects Effects = CallEffects::compute(M);
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    const Function &F = *M.function(static_cast<uint32_t>(FI));
    if (F.isExternal() || F.numBlocks() == 0)
      continue;
    const CfgInfo Cfg = CfgInfo::compute(F);
    const LoopNest Nest = LoopNest::compute(F, Cfg);
    const CfgProbabilities Probs =
        CfgProbabilities::staticHeuristic(F, Cfg, Nest);
    const FreqInfo Freq = FreqInfo::compute(F, Cfg, Nest, Probs);
    for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI) {
      const Loop &L = *Nest.loop(LI);
      std::string Key = Prefix;
      Key += F.name();
      Key += ':';
      Key += std::to_string(L.Header);
      Fn(CorpusLoop{Key, M, F, Cfg, L, Freq, Effects});
    }
  }
}

/// Calls \p Fn(const CorpusLoop &) for every loop of corpus program
/// \p Index, lowered first, then unrolled; within a shape in function
/// order, then loop order.
template <typename FnT> void forEachLoop(size_t Index, FnT Fn) {
  forEachShape(Index, [&](const std::string &Prefix, const Module &M) {
    forEachLoopOf(Prefix, M, Fn);
  });
}

} // namespace spt::depgraph_corpus

#endif // SPT_TESTS_DEPGRAPHCORPUS_H

//===- bench/micro_costmodel.cpp - google-benchmark microbenchmarks -----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Microbenchmarks (google-benchmark) of the compilation framework's inner
// loops: dependence-graph construction, misspeculation-cost evaluation,
// the branch-and-bound partition search and the interpreter. These bound
// the compile-time cost of the cost-driven approach (the paper worried
// about "exceedingly long compilation time" and capped violation
// candidates at 30 for this reason).
//
//===----------------------------------------------------------------------===//

#include "spt.h"

#include <benchmark/benchmark.h>

using namespace spt;

namespace {

/// A mid-sized loop with several violation candidates.
const char *KernelSrc =
    "int a[512]; int b[512]; int hist[64];\n"
    "int f(int n) {\n"
    "  int i; int s; int t; int u;\n"
    "  for (i = 0; i < n; i = i + 1) {\n"
    "    int v; int h;\n"
    "    v = a[i % 512] * 3 + (b[i % 512] >> 2);\n"
    "    t = t + v;\n"
    "    u = u ^ (v * 31);\n"
    "    h = v % 64;\n"
    "    if (h < 0) h = 0 - h;\n"
    "    hist[h] = hist[h] + 1;\n"
    "    b[i % 512] = v - t % 97;\n"
    "    s = s + t + u;\n"
    "  }\n"
    "  return s;\n"
    "}\n";

struct KernelFixture {
  std::unique_ptr<Module> M;
  const Function *F;
  CfgInfo Cfg;
  LoopNest Nest;
  CfgProbabilities Probs;
  FreqInfo Freq;
  CallEffects Effects;

  KernelFixture()
      : M(compileOrDie(KernelSrc)), F(M->findFunction("f")),
        Cfg(CfgInfo::compute(*F)), Nest(LoopNest::compute(*F, Cfg)),
        Probs(CfgProbabilities::staticHeuristic(*F, Cfg, Nest)),
        Freq(FreqInfo::compute(*F, Cfg, Nest, Probs)),
        Effects(CallEffects::compute(*M)) {}
};

KernelFixture &fixture() {
  static KernelFixture K;
  return K;
}

void BM_DepGraphBuild(benchmark::State &State) {
  KernelFixture &K = fixture();
  for (auto _ : State) {
    LoopDepGraph G = LoopDepGraph::build(*K.M, *K.F, K.Cfg, *K.Nest.loop(0),
                                         K.Freq, K.Effects);
    benchmark::DoNotOptimize(G.edges().size());
  }
}
BENCHMARK(BM_DepGraphBuild);

void BM_CostModelConstruct(benchmark::State &State) {
  KernelFixture &K = fixture();
  LoopDepGraph G = LoopDepGraph::build(*K.M, *K.F, K.Cfg, *K.Nest.loop(0),
                                       K.Freq, K.Effects);
  for (auto _ : State) {
    MisspecCostModel Model(G);
    benchmark::DoNotOptimize(Model.hasCycles());
  }
}
BENCHMARK(BM_CostModelConstruct);

void BM_CostEvaluation(benchmark::State &State) {
  KernelFixture &K = fixture();
  LoopDepGraph G = LoopDepGraph::build(*K.M, *K.F, K.Cfg, *K.Nest.loop(0),
                                       K.Freq, K.Effects);
  MisspecCostModel Model(G);
  PartitionSet Empty(G.size(), 0);
  for (auto _ : State)
    benchmark::DoNotOptimize(Model.cost(Empty));
}
BENCHMARK(BM_CostEvaluation);

void BM_PartitionSearch(benchmark::State &State) {
  KernelFixture &K = fixture();
  LoopDepGraph G = LoopDepGraph::build(*K.M, *K.F, K.Cfg, *K.Nest.loop(0),
                                       K.Freq, K.Effects);
  MisspecCostModel Model(G);
  for (auto _ : State) {
    PartitionResult R = PartitionSearch(G, Model).run();
    benchmark::DoNotOptimize(R.Cost);
  }
}
BENCHMARK(BM_PartitionSearch);

void BM_PartitionSearchNoPruning(benchmark::State &State) {
  KernelFixture &K = fixture();
  LoopDepGraph G = LoopDepGraph::build(*K.M, *K.F, K.Cfg, *K.Nest.loop(0),
                                       K.Freq, K.Effects);
  MisspecCostModel Model(G);
  PartitionOptions Opts;
  Opts.EnableSizePrune = false;
  Opts.EnableLowerBoundPrune = false;
  for (auto _ : State) {
    PartitionResult R = PartitionSearch(G, Model, Opts).run();
    benchmark::DoNotOptimize(R.Cost);
  }
}
BENCHMARK(BM_PartitionSearchNoPruning);

void BM_InterpreterSteps(benchmark::State &State) {
  KernelFixture &K = fixture();
  for (auto _ : State) {
    Interpreter In(*K.M);
    In.startCall(K.F, {Value::ofInt(256)});
    benchmark::DoNotOptimize(In.run());
  }
}
BENCHMARK(BM_InterpreterSteps);

} // namespace

BENCHMARK_MAIN();

//===- bench/perf_compile.cpp - Compile-time performance benchmark ----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Times the planning pipeline itself, in two phases:
//
// Phase 1 — pass 1 (dependence graphs, cost models, branch-and-bound
// partition searches over every loop candidate) across the ten workloads,
// under two configurations:
//
//   seq       the shipped pipeline, sequential,
//   obs       seq with span tracing and counter recording enabled; its
//             wall time against seq is the observability overhead, and
//             its aggregate stats dump lands in the JSON output.
//
// Both must produce byte-identical deterministic reports (observability
// never feeds back into planning); the binary fails loudly if they do
// not.
//
// Phase 2 — a partition-search stress sweep. The workload sources are
// compact teaching kernels whose loops carry only a handful of violation
// candidates, so at production thresholds the phase-1 searches are tiny
// and pass 1 is dominated by fixed analysis costs. To measure the search
// itself at production scale, each workload loop's dependence graph is
// replicated into a large synthetic body: Filler pinned (immovable)
// copies modelling the bulk of a hot loop that cannot legally move,
// followed by K movable copies carrying the violation candidates.
// Intra-iteration back-edges are dropped (the paper's acyclic regime;
// every original workload graph is cyclic, which would collapse the
// incremental path to full re-propagation and the search to a handful of
// nodes). The shipped search and the pre-optimization reference search
// (testing/ReferencePlanner.h) run over identical graphs with identical
// options and must agree bitwise on cost, chosen partition, visit counts
// and prune counts; their wall-time ratio is the stress speedup.
//
// Results go to stdout and to a JSON file (default BENCH_compile.json)
// for the bench trajectory.
//
// Flags: --quick (3 workloads, small stress graphs, 1 repeat), --repeat=N
// (keep the fastest of N timings), --out=PATH.
//
//===----------------------------------------------------------------------===//

#include "spt.h"
#include "testing/ReferencePlanner.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace spt;

namespace {

using Clock = std::chrono::steady_clock;

struct ConfigRun {
  double PassOneSeconds = 0.0; ///< Fastest repeat.
  std::string Rendered;        ///< Deterministic report serialization.
  uint64_t Nodes = 0;          ///< Sum of search-tree nodes over loops.
  uint64_t CostEvals = 0;      ///< Sum of cost-model evaluations.
};

/// Compiles \p W Repeat times with compileSpt. \p Obs, when non-null,
/// turns on span tracing and counter recording into that shared context
/// (the "obs" configuration); null compiles with observability off, the
/// default.
ConfigRun runConfig(const Workload &W, int Repeat, ObsContext *Obs = nullptr) {
  ConfigRun Out;
  for (int R = 0; R != Repeat; ++R) {
    auto M = compileWorkload(W);
    SptCompilerOptions Opts;
    if (Obs)
      Opts = Opts.withTracing(Obs);
    CompilationReport Report = compileSpt(*M, Opts);
    if (R == 0) {
      Out.PassOneSeconds = Report.PassOneSeconds;
      Out.Rendered = renderReportDeterministic(Report);
      for (const LoopRecord &L : Report.Loops) {
        Out.Nodes += L.Partition.NodesVisited;
        Out.CostEvals += L.Partition.CostEvals;
      }
    } else {
      Out.PassOneSeconds =
          std::min(Out.PassOneSeconds, Report.PassOneSeconds);
    }
  }
  return Out;
}

/// Accumulated phase-2 results for one search.
struct StressRun {
  double Seconds = 0.0;
  uint64_t Nodes = 0;
  uint64_t CostEvals = 0;
};

/// True when both searches produced bitwise-identical results.
bool sameResult(const PartitionResult &A, const PartitionResult &B) {
  return std::memcmp(&A.Cost, &B.Cost, sizeof(double)) == 0 &&
         A.ChosenVcs == B.ChosenVcs && A.InPreFork == B.InPreFork &&
         A.NodesVisited == B.NodesVisited && A.CostEvals == B.CostEvals &&
         A.SizePrunes == B.SizePrunes &&
         A.LowerBoundPrunes == B.LowerBoundPrunes;
}

/// Runs the phase-2 sweep over every loop of every workload in Suite,
/// timing the reference and the shipped search over identical stress
/// graphs. Model and VC-graph construction are included in the timed
/// region — the reference constructor's O(E*V) topological rescans are
/// part of the pre-optimization cost.
void runStress(const std::vector<Workload> &Suite, unsigned Filler,
               unsigned K, StressRun &Ref, StressRun &Inc,
               bool &Identical) {
  for (const Workload &W : Suite) {
    auto M = compileWorkload(W);
    CallEffects Effects = CallEffects::compute(*M);
    for (size_t FI = 0; FI != M->numFunctions(); ++FI) {
      const Function *F = M->function(static_cast<uint32_t>(FI));
      if (F->isExternal() || F->numBlocks() == 0)
        continue;
      CfgInfo Cfg = CfgInfo::compute(*F);
      LoopNest Nest = LoopNest::compute(*F, Cfg);
      CfgProbabilities Probs =
          CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
      FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);
      for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI) {
        LoopDepGraph G0 = LoopDepGraph::build(*M, *F, Cfg, *Nest.loop(LI), Freq,
                                              Effects);
        if (G0.violationCandidates().empty())
          continue;
        LoopDepGraph G = replicateAcyclic(G0, Filler, K);
        PartitionOptions PO;
        PO.MaxViolationCandidates = 100000;
        PartitionResult Results[2];
        for (int Mode = 0; Mode != 2; ++Mode) {
          const auto T0 = Clock::now();
          MisspecCostModel Model(G);
          PartitionSearch S(G, Model, PO);
          Results[Mode] = Mode == 0 ? referencePartitionSearch(
                                          S, ReferenceCostModel(G), PO)
                                    : S.run();
          const double Dt =
              std::chrono::duration<double>(Clock::now() - T0).count();
          StressRun &Acc = Mode == 0 ? Ref : Inc;
          Acc.Seconds += Dt;
          Acc.Nodes += Results[Mode].NodesVisited;
          Acc.CostEvals += Results[Mode].CostEvals;
        }
        if (!sameResult(Results[0], Results[1]))
          Identical = false;
      }
    }
  }
}

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

std::string fmt2(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.2f", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  int Repeat = 3;
  std::string OutPath = "BENCH_compile.json";
  for (int I = 1; I != Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--quick") {
      Quick = true;
    } else if (Arg.rfind("--repeat=", 0) == 0) {
      Repeat = std::max(1, std::atoi(Arg.c_str() + 9));
    } else if (Arg.rfind("--out=", 0) == 0) {
      OutPath = Arg.substr(6);
    } else {
      errs() << "unknown flag: " << Arg
             << " (expected --quick --repeat=N --out=PATH)\n";
      return 2;
    }
  }
  if (Quick)
    Repeat = 1;
  const unsigned StressFiller = Quick ? 2 : 8;
  const unsigned StressK = Quick ? 4 : 8;

  outs() << "==============================================================\n";
  outs() << " perf_compile: pass-1 + partition-search wall time\n";
  outs() << " stress baseline = reference search (pre-optimization)\n";
  outs() << " repeat = " << Repeat << ", stress = " << StressFiller
         << " pinned + " << StressK << " movable copies\n";
  outs() << "==============================================================\n";

  std::vector<Workload> Suite = allWorkloads();
  if (Quick)
    Suite.resize(3);

  Table T({"workload", "nodes", "cost evals", "seq (s)", "obs (s)",
           "identical"});

  double SeqTotal = 0.0, ObsTotal = 0.0;
  uint64_t NodesTotal = 0, EvalsTotal = 0;
  bool AllIdentical = true;
  ObsContext ObsCtx; // Shared sink for every obs-configuration compile.
  std::string Json;
  Json += "{\n  \"workloads\": [\n";

  for (size_t WI = 0; WI != Suite.size(); ++WI) {
    const Workload &W = Suite[WI];
    const ConfigRun Seq = runConfig(W, Repeat);
    const ConfigRun Obs = runConfig(W, Repeat, &ObsCtx);

    const bool Identical = Seq.Rendered == Obs.Rendered;
    AllIdentical = AllIdentical && Identical;
    SeqTotal += Seq.PassOneSeconds;
    ObsTotal += Obs.PassOneSeconds;
    NodesTotal += Seq.Nodes;
    EvalsTotal += Seq.CostEvals;

    T.beginRow();
    T.cell(W.Name);
    T.cell(Seq.Nodes);
    T.cell(Seq.CostEvals);
    T.cell(fmt(Seq.PassOneSeconds));
    T.cell(fmt(Obs.PassOneSeconds));
    T.cell(Identical ? "yes" : "NO");

    Json += "    {\"name\": \"" + W.Name + "\"";
    Json += ", \"nodes\": " + std::to_string(Seq.Nodes);
    Json += ", \"cost_evals\": " + std::to_string(Seq.CostEvals);
    Json += ", \"seq_seconds\": " + fmt(Seq.PassOneSeconds);
    Json += ", \"obs_seconds\": " + fmt(Obs.PassOneSeconds);
    Json += std::string(", \"reports_identical\": ") +
            (Identical ? "true" : "false") + "}";
    Json += WI + 1 != Suite.size() ? ",\n" : "\n";
  }

  T.print(outs());

  const double ObsOverhead = SeqTotal == 0.0 ? 0.0 : ObsTotal / SeqTotal;
  outs() << "\npass 1: seq " << fmt(SeqTotal) << " s, obs " << fmt(ObsTotal)
         << " s (" << fmt2(ObsOverhead) << "x of seq with tracing on)\n";
  outs() << "deterministic reports "
         << (AllIdentical ? "byte-identical across both configurations\n"
                          : "DIVERGED — observability changed a report\n");

  outs() << "\nstress sweep (" << StressFiller << " pinned + " << StressK
         << " movable copies per loop, acyclic regime) ...\n";
  StressRun StressRef, StressInc;
  bool StressIdentical = true;
  runStress(Suite, StressFiller, StressK, StressRef, StressInc,
            StressIdentical);
  AllIdentical = AllIdentical && StressIdentical;
  const double StressSpeed = StressRef.Seconds / StressInc.Seconds;
  outs() << "stress: baseline " << fmt(StressRef.Seconds) << " s, seq "
         << fmt(StressInc.Seconds) << " s (" << fmt2(StressSpeed)
         << "x), " << StressInc.Nodes << " nodes, " << StressInc.CostEvals
         << " cost evals, results "
         << (StressIdentical ? "bit-identical\n" : "DIVERGED\n");
  outs() << "stress throughput: "
         << fmt2(StressInc.Nodes / StressInc.Seconds) << " nodes/s, "
         << fmt2(StressInc.CostEvals / StressInc.Seconds)
         << " cost evals/s (baseline "
         << fmt2(StressRef.Nodes / StressRef.Seconds) << " nodes/s, "
         << fmt2(StressRef.CostEvals / StressRef.Seconds)
         << " cost evals/s)\n";

  Json += "  ],\n";
  Json += "  \"stress\": {";
  Json += "\"pinned_copies\": " + std::to_string(StressFiller);
  Json += ", \"movable_copies\": " + std::to_string(StressK);
  Json += ", \"baseline_seconds\": " + fmt(StressRef.Seconds);
  Json += ", \"seq_seconds\": " + fmt(StressInc.Seconds);
  Json += ", \"speedup_seq\": " + fmt2(StressSpeed);
  Json += ", \"nodes\": " + std::to_string(StressInc.Nodes);
  Json += ", \"cost_evals\": " + std::to_string(StressInc.CostEvals);
  Json += ", \"nodes_per_second_seq\": " +
          fmt2(StressInc.Nodes / StressInc.Seconds);
  Json += ", \"cost_evals_per_second_seq\": " +
          fmt2(StressInc.CostEvals / StressInc.Seconds);
  Json += std::string(", \"results_identical\": ") +
          (StressIdentical ? "true" : "false");
  Json += "},\n";
  Json += "  \"total\": {";
  Json += "\"seq_seconds\": " + fmt(SeqTotal + StressInc.Seconds);
  Json += ", \"pass1_seq_seconds\": " + fmt(SeqTotal);
  Json += ", \"nodes\": " + std::to_string(NodesTotal + StressInc.Nodes);
  Json += ", \"cost_evals\": " +
          std::to_string(EvalsTotal + StressInc.CostEvals);
  Json += ", \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency());
  Json += std::string(", \"reports_identical\": ") +
          (AllIdentical ? "true" : "false");
  Json += "},\n";
  // The obs configuration's aggregate stats block: counters, histogram
  // buckets and span counts over every traced compile of the run
  // (deterministic — no wall-clock inside).
  Json += "  \"observability\": {";
  Json += "\"pass1_obs_seconds\": " + fmt(ObsTotal);
  Json += ", \"pass1_overhead_vs_seq\": " + fmt2(ObsOverhead);
  std::string StatsJson = renderStatsJson(ObsCtx.snapshot());
  while (!StatsJson.empty() && StatsJson.back() == '\n')
    StatsJson.pop_back();
  Json += ", \"stats\": " + StatsJson;
  Json += "}\n}\n";

  std::ofstream Out(OutPath);
  Out << Json;
  Out.close();
  outs() << "wrote " << OutPath << "\n";

  return AllIdentical ? 0 : 1;
}

//===- perfbench/src/Suite.cpp - The fig14 suite workload -----------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's experiment: all ten workloads x basic/best/anticipated,
// compile plus sequential and speculative simulation, single-threaded.
// The seed sets RngSeed for the profiler, both simulators and the
// reference interpreter. The ten programs take no rnd() input, so their
// results repeat exactly on every seed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"
#include "Programs.h"

#include <cstdio>

using namespace perfbench;
using namespace spt;

namespace {

/// Set-up repetitions; setup_s is their median.
constexpr int SetupReps = 3;

struct SuitePass {
  std::vector<ProgramRun> Runs;
  double WallS = 0.0;

  double compileS() const {
    double S = 0.0;
    for (const ProgramRun &Run : Runs)
      for (const ModeRun &MR : Run.Modes)
        S += MR.CompileS;
    return S;
  }
  size_t compiles() const {
    size_t N = 0;
    for (const ProgramRun &Run : Runs)
      N += Run.Modes.size();
    return N;
  }
};

SuitePass runPass(const std::vector<ArchState> &Refs, const RunConfig &Cfg,
                  Result &R) {
  SuitePass P;
  ObsSpan Root(Cfg.Obs, "bench.suite");
  const auto T0 = Clock::now();
  const std::vector<Workload> &Ws = allWorkloads();
  for (size_t I = 0; I != Ws.size(); ++I) {
    const Workload &W = Ws[I];
    P.Runs.push_back(runProgram(
        W.Name, [&W] { return compileWorkload(W); }, Refs[I], Cfg, R));
  }
  P.WallS = secondsSince(T0);
  return P;
}

void printPrograms(const SuitePass &P) {
  std::printf("  %-8s %12s %8s %8s %12s %6s %10s %10s\n", "program",
              "seq Mcycles", "basic", "best", "anticipated", "#best",
              "compile s", "sim s");
  for (const ProgramRun &Run : P.Runs) {
    if (Run.Modes.size() != AllModes.size())
      continue;
    double CompileS = 0.0, SimS = Run.SeqS;
    for (const ModeRun &MR : Run.Modes) {
      CompileS += MR.CompileS;
      SimS += MR.SptS;
    }
    std::printf("  %-8s %12.3f %7.3fx %7.3fx %11.3fx %6zu %10.3f %10.3f\n",
                Run.Name.c_str(), Run.Seq.cycles() / 1e6, Run.speedup(0),
                Run.speedup(1), Run.speedup(2),
                Run.Modes[1].Report.numSelected(), CompileS, SimS);
  }
}

/// Stage seconds per mode of a traced pass (the pipeline's spans inside
/// each compileSpt call).
void printStagesPerMode(const SuitePass &P,
                        const std::vector<Tracer::Event> &Events) {
  const char *Stages[] = {"stageA.unroll", "stageB.profile", "stageC.svp",
                          "pass1", "pass2", "compile"};
  std::printf("  %-12s", "mode");
  for (const char *S : Stages)
    std::printf(" %14s", S);
  std::printf("\n");
  for (size_t MI = 0; MI != AllModes.size(); ++MI) {
    double Sum[6] = {};
    for (const ProgramRun &Run : P.Runs) {
      if (Run.Modes.size() != AllModes.size())
        continue;
      const ModeRun &MR = Run.Modes[MI];
      const LayerTimes T =
          accountLayers(Events, MR.TraceBeginNs, MR.TraceEndNs);
      for (size_t SI = 0; SI != 6; ++SI)
        Sum[SI] += T.span(Stages[SI]);
    }
    std::printf("  %-12s", compilationModeName(AllModes[MI]));
    for (double S : Sum)
      std::printf(" %14.6f", S);
    std::printf("\n");
  }
}

Counts passCounts(const SuitePass &P, const ObsContext &Obs) {
  Counts C = deterministicCounts(Obs);
  const RunCounts RC = countRuns(P.Runs);
  C["bench.loops_selected"] = static_cast<double>(RC.LoopsSelected);
  C["bench.svp_applied"] = static_cast<double>(RC.SvpApplied);
  C["bench.joins"] = static_cast<double>(RC.Joins);
  C["bench.reexec_instrs"] = static_cast<double>(RC.ReexecInstrs);
  const std::array<double, 3> G = speedupGeomeans(P.Runs);
  for (size_t MI = 0; MI != AllModes.size(); ++MI)
    C[std::string("bench.speedup_geomean_") +
      compilationModeName(AllModes[MI])] = G[MI];
  return C;
}

/// Untraced compileSpt wall of every (workload, mode): the compile latency
/// sample and the untraced side of the tracing-overhead figure.
std::vector<double> untracedCompiles(uint64_t RngSeed) {
  std::vector<double> Seconds;
  for (const Workload &W : allWorkloads())
    for (CompilationMode Mode : AllModes) {
      std::unique_ptr<Module> M = compileWorkload(W);
      const auto T0 = Clock::now();
      compileSpt(*M, SptCompilerOptions().withMode(Mode).withSeed(RngSeed));
      Seconds.push_back(secondsSince(T0));
    }
  return Seconds;
}

} // namespace

void perfbench::runSuite(const Args &A, Result &R) {
  const uint64_t RngSeed = mixSeed(A.Seed, 0);
  std::printf("suite: %zu workloads x %zu modes, RngSeed %llu\n",
              allWorkloads().size(), AllModes.size(),
              static_cast<unsigned long long>(RngSeed));

  // Set-up: lower every workload and interpret it (the reference).
  std::vector<double> SetupS;
  std::vector<ArchState> Refs;
  double InterpS = 0.0, InterpInstrs = 0.0;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    const auto T0 = Clock::now();
    Refs.clear();
    for (const Workload &W : allWorkloads()) {
      std::unique_ptr<Module> M = compileWorkload(W);
      Refs.push_back(interpret(*M, RngSeed));
      InterpS += Refs.back().Seconds;
      InterpInstrs += static_cast<double>(Refs.back().Instrs);
    }
    SetupS.push_back(secondsSince(T0));
  }

  RunConfig Cfg;
  Cfg.RngSeed = RngSeed;

  if (!A.Trace) {
    std::vector<double> Walls, CompileS;
    SuitePass Last;
    std::array<double, 3> FirstG{};
    const auto T0 = Clock::now();
    do {
      SuitePass P = runPass(Refs, Cfg, R);
      Walls.push_back(P.WallS);
      CompileS.push_back(P.compileS());
      const std::array<double, 3> G = speedupGeomeans(P.Runs);
      if (Walls.size() == 1) {
        FirstG = G;
      } else {
        R.attempt();
        if (G != FirstG)
          R.fail("suite: speedups differ between passes of one seed");
      }
      Last = std::move(P);
    } while (secondsSince(T0) < A.Seconds);

    printPrograms(Last);
    const std::array<double, 3> G = speedupGeomeans(Last.Runs);
    const std::string Passes = std::to_string(Walls.size()) + " pass(es)";
    R.metric("pipeline_s", median(Walls), "s", "median of " + Passes);
    R.metric("compiles_per_s",
             ratio(static_cast<double>(Last.compiles()), median(CompileS)),
             "1/s",
             std::to_string(Last.compiles()) +
                 " compileSpt calls / median summed compileSpt wall " +
                 fmt(median(CompileS)) + " s");
    for (size_t MI = 0; MI != AllModes.size(); ++MI)
      R.metric(std::string("speedup_geomean_") +
                   compilationModeName(AllModes[MI]),
               G[MI], "ratio", "runSequential cycles, 10 workloads");
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    R.metric("setup_s", median(SetupS), "s",
             "median of " + std::to_string(SetupReps) + " set-ups");
    return;
  }

  // Traced: two traced passes whose deterministic counts must agree. The
  // untraced side of the overhead figure runs between them and covers the
  // 30 compiles only: the simulators record one span per call, so nearly
  // all tracing work is in compileSpt, and a third full pass would not fit
  // the run's time limit on a slow host.
  ObsContext CtxA, CtxB;
  RunConfig CfgA = Cfg, CfgB = Cfg;
  CfgA.Obs = &CtxA;
  CfgB.Obs = &CtxB;
  const SuitePass PA = runPass(Refs, CfgA, R);
  const std::vector<double> UntracedCompileS = untracedCompiles(RngSeed);
  const SuitePass PB = runPass(Refs, CfgB, R);
  checkRepeat("suite", passCounts(PA, CtxA), passCounts(PB, CtxB), R);

  const std::vector<Tracer::Event> Events = CtxA.Trace.events();
  const LayerTimes T = accountLayers(Events);
  printPrograms(PA);
  printStagesPerMode(PA, Events);
  reportLayers(T, R);

  LayerMetrics L;
  L.LowerS = T.span("lang.lower");
  std::vector<std::string> Sources;
  for (const Workload &W : allWorkloads())
    Sources.push_back(W.Source);
  L.CanonicalizeS = probeCanonicalize(Sources, R);
  L.InterpMinstrsPerS = ratio(InterpInstrs, InterpS) / 1e6;

  uint64_t ProfileSteps = 0;
  for (const Workload &W : allWorkloads()) {
    std::unique_ptr<Module> M = compileWorkload(W);
    L.ProfileS += probeProfile(*M, RngSeed, Cfg.ProfileMaxSteps, ProfileSteps);
  }
  L.ProfileMstepsPerS =
      ratio(static_cast<double>(ProfileSteps), L.ProfileS) / 1e6;
  L.ProfileSlowdown = ratio(L.InterpMinstrsPerS, L.ProfileMstepsPerS);
  L.ProfileSlowdownBase =
      "interp " + fmt(L.InterpMinstrsPerS) + " Minstrs/s on the same modules";

  L.StageA = T.span("stageA.unroll");
  L.StageB = T.span("stageB.profile");
  L.StageC = T.span("stageC.svp");
  L.Pass1 = T.span("pass1");
  L.Pass2 = T.span("pass2");
  L.CompileS = T.span("compile");
  std::vector<double> CompileMs;
  double UntracedS = 0.0;
  for (double S : UntracedCompileS) {
    CompileMs.push_back(S * 1e3);
    UntracedS += S;
  }
  L.CompileMsP50 = percentile(CompileMs, 50);
  L.CompileMsP99 = percentile(CompileMs, 99);
  L.CompileMsBase = std::to_string(CompileMs.size()) +
                    " untraced compileSpt calls";

  const RunCounts C = countRuns(PA.Runs);
  const Counts Obs = deterministicCounts(CtxA);
  L.LoopsSelected = static_cast<double>(C.LoopsSelected);
  L.SvpApplied = static_cast<double>(C.SvpApplied);
  L.NodesVisited = countOf(Obs, "partition.nodes.visited");
  L.CostEvals = countOf(Obs, "partition.cost.evals");
  L.SeqS = T.span("sim.runSequential");
  L.SptS = T.span("sim.call.runSpt");
  L.SeqInstrs = static_cast<double>(C.SeqInstrs);
  L.SptInstrs = static_cast<double>(C.SptInstrs);
  L.MemoHits = static_cast<double>(C.MemoHits);
  L.MemoMisses = static_cast<double>(C.MemoMisses);
  L.Joins = static_cast<double>(C.Joins);
  L.CleanJoins = static_cast<double>(C.CleanJoins);
  L.SpecInstrs = static_cast<double>(C.SpecInstrs);
  L.ReexecInstrs = static_cast<double>(C.ReexecInstrs);
  L.TracedS = (PA.WallS + PB.WallS) / 2.0;
  const double TracedCompileS = (PA.compileS() + PB.compileS()) / 2.0;
  L.OverheadRatio = ratio(TracedCompileS, UntracedS);
  L.OverheadBase = "untraced compileSpt " + fmt(UntracedS) +
                   " s, traced " + fmt(TracedCompileS) + " s, " +
                   std::to_string(UntracedCompileS.size()) + " calls each";
  reportLayerMetrics(L, R);
}

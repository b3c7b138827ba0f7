//===- perfbench/src/Serve.cpp - The batch-server workloads ---------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// serve_cold: fresh BatchCompileServer per batch, so every request misses
// the compile cache and runs the whole compile (profile, SVP, planner).
// serve_warm: one server filled once (set-up), then repeated passes that
// are all checksum-verified cache hits: canonicalization, cache lookup
// and the worker queues only.
//
// Load is a closed loop: one submitter calls submitOrWait against a
// bounded queue (256), with min(4, nproc) workers. The seed picks the
// programs (generateProgram), nothing else.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"
#include "Programs.h"

#include <algorithm>
#include <cstdio>
#include <thread>

using namespace perfbench;
using namespace spt;

namespace {

/// Batch size: per-program compile latency needs at least ten samples
/// above its p99.
constexpr size_t Programs = 1000;
/// Set-up repetitions; setup_s is their median.
constexpr int SetupReps = 3;
/// serve_cold set-up: programs in the throwaway warm-up batch.
constexpr size_t WarmupPrograms = 100;
/// Programs compiled and simulated in all three modes for the plan
/// quality (speedup) metrics: a fixed set (generator seeds 1..PlanSample,
/// the first perf_serve programs), not drawn from the workload seed, so
/// the speedups are exact repeatable counts like the suite's.
constexpr size_t PlanSample = 48;
/// Profiling budget of every compile, as in perf_serve.
constexpr uint64_t ProfileMaxSteps = 2000000;
/// Warm passes per traced measurement.
constexpr int TracedWarmPasses = 40;

unsigned workers() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/// \p N programs from generator seeds Base, Base + 1, ...
std::vector<ServeRequest> makeBatch(uint64_t Base, size_t N) {
  GeneratorOptions GO;
  GO.MinLoops = 2;
  GO.MaxLoops = 3;
  GO.MaxStmtsPerBody = 5;
  GO.MaxTrip = 100;
  std::vector<ServeRequest> Batch(N);
  for (size_t I = 0; I != N; ++I) {
    Batch[I].Id = I + 1;
    Batch[I].Name = "gen/" + std::to_string(I);
    Batch[I].Source = generateProgram(Base + I, GO);
  }
  return Batch;
}

SptCompilerOptions compilerOptions() {
  SptCompilerOptions O;
  O.ProfileMaxSteps = ProfileMaxSteps;
  return O;
}

ServeOptions serveOptions(ObsContext *Obs) {
  ServeOptions SO;
  SO.Workers = workers();
  SO.MaxQueue = 256;
  SO.CacheCapacity = Programs + 64; // Room for the whole batch.
  SO.Compiler = compilerOptions();
  if (Obs) {
    SO.Obs = Obs;
    SO.Compiler = SO.Compiler.withTracing(Obs);
  }
  return SO;
}

struct BatchRun {
  double WallS = 0.0;
  double BlockedS = 0.0; ///< Submitter time inside submitOrWait.
  ServeBatchReport Report;
};

BatchRun runBatch(BatchCompileServer &Server,
                  const std::vector<ServeRequest> &Batch, ObsContext *Obs) {
  BatchRun Out;
  ObsSpan Span(Obs, "serve.batch");
  const auto T0 = Clock::now();
  Server.start();
  for (const ServeRequest &Req : Batch) {
    const auto TS = Clock::now();
    Server.submitOrWait(Req);
    Out.BlockedS += secondsSince(TS);
  }
  Out.Report = Server.drain();
  Out.WallS = secondsSince(T0);
  return Out;
}

/// Every request must complete without refusal; with \p Ref, its report
/// must be byte-equal to the reference batch's; with \p RequireHit, it
/// must come from the cache.
void checkBatch(const std::string &What, const ServeBatchReport &Got,
                const ServeBatchReport *Ref, bool RequireHit, Result &R) {
  R.attempt(Programs);
  for (uint64_t I = 0; I != Got.RejectedOverload; ++I)
    R.fail(What + ": request refused as overloaded");
  if (Got.Outcomes.size() != Programs)
    R.fail(What + ": " + std::to_string(Got.Outcomes.size()) +
           " outcomes for " + std::to_string(Programs) + " requests");
  for (size_t I = 0; I != Got.Outcomes.size(); ++I) {
    const ServeOutcome &O = Got.Outcomes[I];
    const std::string Where = What + "/" + O.Name;
    if (O.State != ServeState::Completed)
      R.fail(Where + ": " + serveStateName(O.State) + " " +
             O.Error.message());
    else if (RequireHit && !O.CacheHit)
      R.fail(Where + ": served without the cache");
    else if (Ref && (I >= Ref->Outcomes.size() ||
                     Ref->Outcomes[I].Id != O.Id ||
                     Ref->Outcomes[I].Report != O.Report))
      R.fail(Where + ": report differs from the cold report");
  }
}

/// Simulated speedups of the PlanSample programs, compiled directly in
/// every mode with the server's compiler options and checked against the
/// reference interpreter.
std::array<double, 3> planQuality(Result &R) {
  const std::vector<ServeRequest> Batch = makeBatch(1, PlanSample);
  RunConfig Cfg;
  Cfg.RngSeed = compilerOptions().RngSeed;
  Cfg.ProfileMaxSteps = ProfileMaxSteps;
  std::vector<ProgramRun> Runs;
  for (size_t I = 0; I != Batch.size(); ++I) {
    const std::string &Source = Batch[I].Source;
    const Lowering Lower = [&Source] { return compileSource(Source).M; };
    std::unique_ptr<Module> M = Lower();
    if (!M) {
      R.attempt();
      R.fail(Batch[I].Name + ": generated program does not compile");
      continue;
    }
    Runs.push_back(runProgram(Batch[I].Name, Lower,
                              interpret(*M, Cfg.RngSeed), Cfg, R));
  }
  return speedupGeomeans(Runs);
}

Counts minus(const Counts &After, const Counts &Before) {
  Counts Out = After;
  for (const auto &[Name, V] : Before)
    Out[Name] -= V;
  return Out;
}

/// Direct, single-threaded calls into each layer over the batch's
/// programs: lowering, the reference interpreter, a best-mode profile and
/// a full compileSpt (untraced) per program.
void probeLayers(const std::vector<ServeRequest> &Batch, LayerMetrics &L,
                 Result &R) {
  const SptCompilerOptions Opts = compilerOptions();
  double InterpS = 0.0, InterpInstrs = 0.0;
  uint64_t ProfileSteps = 0;
  std::vector<double> CompileMs;
  RunCounts RC;
  for (const ServeRequest &Req : Batch) {
    auto T0 = Clock::now();
    CompileResult CR = compileSource(Req.Source);
    L.LowerS += secondsSince(T0);
    R.attempt();
    if (!CR.ok()) {
      R.fail(Req.Name + ": generated program does not compile");
      continue;
    }
    const ArchState Ref = interpret(*CR.M, Opts.RngSeed);
    if (!Ref.Done)
      R.fail(Req.Name + ": the reference interpreter did not finish");
    InterpS += Ref.Seconds;
    InterpInstrs += static_cast<double>(Ref.Instrs);
    L.ProfileS += probeProfile(*CR.M, Opts.RngSeed, ProfileMaxSteps,
                               ProfileSteps);

    std::unique_ptr<Module> M = compileSource(Req.Source).M;
    T0 = Clock::now();
    const CompilationReport Report = compileSpt(*M, Opts);
    CompileMs.push_back(secondsSince(T0) * 1e3);
    countReport(Report, RC);
  }
  L.InterpMinstrsPerS = ratio(InterpInstrs, InterpS) / 1e6;
  L.ProfileMstepsPerS =
      ratio(static_cast<double>(ProfileSteps), L.ProfileS) / 1e6;
  L.ProfileSlowdown = ratio(L.InterpMinstrsPerS, L.ProfileMstepsPerS);
  L.ProfileSlowdownBase =
      "interp " + fmt(L.InterpMinstrsPerS) + " Minstrs/s on the same modules";
  L.CompileMsP50 = percentile(CompileMs, 50);
  L.CompileMsP99 = percentile(CompileMs, 99);
  L.CompileMsBase = std::to_string(CompileMs.size()) +
                    " direct single-threaded compileSpt calls";
  L.LoopsSelected = static_cast<double>(RC.LoopsSelected);
  L.SvpApplied = static_cast<double>(RC.SvpApplied);
}

std::vector<std::string> sourcesOf(const std::vector<ServeRequest> &Batch) {
  std::vector<std::string> Out;
  for (const ServeRequest &Req : Batch)
    Out.push_back(Req.Source);
  return Out;
}

void tracedCold(const std::vector<ServeRequest> &Batch, Result &R) {
  // Traced, untraced, traced: the overhead figure compares the untraced
  // batch with the mean of the traced ones around it.
  ObsContext CtxA, CtxB;
  BatchRun BA, U, BB;
  {
    BatchCompileServer S(serveOptions(&CtxA));
    BA = runBatch(S, Batch, &CtxA);
  }
  {
    BatchCompileServer S(serveOptions(nullptr));
    U = runBatch(S, Batch, nullptr);
  }
  {
    BatchCompileServer S(serveOptions(&CtxB));
    BB = runBatch(S, Batch, &CtxB);
  }
  checkBatch("serve_cold/untraced", U.Report, nullptr, false, R);
  checkBatch("serve_cold/traced", BA.Report, &U.Report, false, R);
  checkBatch("serve_cold/traced", BB.Report, &U.Report, false, R);
  checkRepeat("serve_cold", deterministicCounts(CtxA),
              deterministicCounts(CtxB), R);

  const LayerTimes T = accountLayers(CtxA.Trace.events());
  reportLayers(T, R);

  LayerMetrics L;
  probeLayers(Batch, L, R);
  L.CanonicalizeS = probeCanonicalize(sourcesOf(Batch), R);
  L.StageA = T.span("stageA.unroll");
  L.StageB = T.span("stageB.profile");
  L.StageC = T.span("stageC.svp");
  L.Pass1 = T.span("pass1");
  L.Pass2 = T.span("pass2");
  L.CompileS = T.span("compile");
  const Counts C = deterministicCounts(CtxA);
  L.NodesVisited = countOf(C, "partition.nodes.visited");
  L.CostEvals = countOf(C, "partition.cost.evals");
  L.Requests = Programs;
  L.CacheHits = static_cast<double>(BA.Report.Cache.Hits);
  L.SubmitBlockedS = BA.BlockedS;
  L.Retried = static_cast<double>(BA.Report.Retried);
  L.Degraded = static_cast<double>(BA.Report.Degraded);
  L.TracedS = (BA.WallS + BB.WallS) / 2.0;
  L.OverheadRatio = ratio(L.TracedS, U.WallS);
  L.OverheadBase = "untraced batch " + fmt(U.WallS) + " s";
  reportLayerMetrics(L, R);
}

void tracedWarm(const std::vector<ServeRequest> &Batch, Result &R) {
  ObsContext Ctx;
  BatchCompileServer Untraced(serveOptions(nullptr));
  BatchCompileServer Traced(serveOptions(&Ctx));
  const BatchRun UFill = runBatch(Untraced, Batch, nullptr);
  const BatchRun TFill = runBatch(Traced, Batch, &Ctx);
  checkBatch("serve_warm/fill", UFill.Report, nullptr, false, R);
  checkBatch("serve_warm/traced fill", TFill.Report, &UFill.Report, false, R);

  std::vector<double> UWalls, TWalls;
  for (int P = 0; P != TracedWarmPasses; ++P) {
    const BatchRun B = runBatch(Untraced, Batch, nullptr);
    checkBatch("serve_warm/untraced", B.Report, &UFill.Report, true, R);
    UWalls.push_back(B.WallS);
  }
  double BlockedS = 0.0;
  auto TracedPasses = [&] {
    for (int P = 0; P != TracedWarmPasses; ++P) {
      const BatchRun B = runBatch(Traced, Batch, &Ctx);
      checkBatch("serve_warm/traced", B.Report, &TFill.Report, true, R);
      TWalls.push_back(B.WallS);
      BlockedS += B.BlockedS;
    }
  };
  const uint64_t From = Ctx.Trace.nowNs();
  const Counts C0 = deterministicCounts(Ctx);
  TracedPasses();
  const uint64_t To = Ctx.Trace.nowNs();
  const Counts C1 = deterministicCounts(Ctx);
  const double BlockedA = BlockedS;
  TracedPasses();
  const Counts C2 = deterministicCounts(Ctx);
  const Counts DeltaA = minus(C1, C0);
  checkRepeat("serve_warm", DeltaA, minus(C2, C1), R);

  const LayerTimes T = accountLayers(Ctx.Trace.events(), From, To);
  reportLayers(T, R);

  // Only the serve layer (and the canonicalization inside it) runs; the
  // compile, profile and simulation layers report 0.
  LayerMetrics L;
  L.CanonicalizeS = probeCanonicalize(sourcesOf(Batch), R);
  L.Requests = static_cast<double>(TracedWarmPasses) * Programs;
  L.CacheHits = countOf(DeltaA, "serve.cache.hit");
  L.SubmitBlockedS = BlockedA;
  L.Retried = countOf(DeltaA, "serve.retried");
  L.Degraded = countOf(DeltaA, "serve.degraded");
  L.NodesVisited = countOf(DeltaA, "partition.nodes.visited");
  L.CostEvals = countOf(DeltaA, "partition.cost.evals");
  L.StageB = T.span("stageB.profile");
  L.Pass1 = T.span("pass1");
  L.Pass2 = T.span("pass2");
  L.CompileS = T.span("compile");
  L.TracedS = median(TWalls);
  L.OverheadRatio = ratio(L.TracedS, median(UWalls));
  L.OverheadBase = "untraced warm pass " + fmt(median(UWalls)) + " s";
  reportLayerMetrics(L, R);
}

} // namespace

void perfbench::runServe(const Args &A, bool Warm, Result &R) {
  const std::string Name = Warm ? "serve_warm" : "serve_cold";
  std::printf("%s: %zu generated programs (seed stream %llu), %u workers, "
              "closed loop, queue bound 256\n",
              Name.c_str(), Programs,
              static_cast<unsigned long long>(mixSeed(A.Seed, 1)), workers());

  if (A.Trace) {
    const std::vector<ServeRequest> Batch =
        makeBatch(mixSeed(A.Seed, 1), Programs);
    if (Warm)
      tracedWarm(Batch, R);
    else
      tracedCold(Batch, R);
    return;
  }

  // Set-up: generate the batch. serve_warm then fills a server's cache;
  // serve_cold warms the process (allocator, worker start-up) with a
  // throwaway cold batch of the first WarmupPrograms.
  std::vector<ServeRequest> Batch;
  std::unique_ptr<BatchCompileServer> Server;
  BatchRun Fill;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    const auto T0 = Clock::now();
    Batch = makeBatch(mixSeed(A.Seed, 1), Programs);
    if (Warm) {
      Server.reset();
      Server = std::make_unique<BatchCompileServer>(serveOptions(nullptr));
      Fill = runBatch(*Server, Batch, nullptr);
    } else {
      BatchCompileServer S(serveOptions(nullptr));
      runBatch(S, {Batch.begin(), Batch.begin() + WarmupPrograms}, nullptr);
    }
    SetupS.push_back(secondsSince(T0));
  }
  if (Warm)
    checkBatch(Name + "/fill", Fill.Report, nullptr, false, R);

  std::vector<double> Walls;
  BatchRun First;
  const ServeBatchReport *Ref = Warm ? &Fill.Report : nullptr;
  const size_t MinPasses = Warm ? 5 : 3;
  const auto T0 = Clock::now();
  do {
    BatchRun B;
    if (Warm) {
      B = runBatch(*Server, Batch, nullptr);
    } else {
      BatchCompileServer S(serveOptions(nullptr));
      B = runBatch(S, Batch, nullptr);
    }
    checkBatch(Name, B.Report, Ref, Warm, R);
    Walls.push_back(B.WallS);
    if (!Ref) {
      First = std::move(B);
      Ref = &First.Report;
    }
  } while (secondsSince(T0) < A.Seconds || Walls.size() < MinPasses);

  const double Wall = median(Walls);
  std::printf("  %zu passes: min %.6f s, median %.6f s, max %.6f s\n",
              Walls.size(), percentile(Walls, 0), Wall, percentile(Walls, 100));
  const std::string Unit = Warm ? "warm pass" : "cold batch";
  const std::string Passes =
      "median of " + std::to_string(Walls.size()) + " " + Unit + "es";
  R.metric("pipeline_s", Wall, "s", Passes + " of " + std::to_string(Programs));
  R.metric("compiles_per_s", ratio(Programs, Wall), "1/s",
           std::to_string(Programs) + " requests / " + Passes);
  const std::array<double, 3> G = planQuality(R);
  for (size_t MI = 0; MI != AllModes.size(); ++MI)
    R.metric(std::string("speedup_geomean_") +
                 compilationModeName(AllModes[MI]),
             G[MI], "ratio",
             "runSequential cycles, " + std::to_string(PlanSample) +
                 " fixed generated programs");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  R.metric("setup_s", median(SetupS), "s",
           "median of " + std::to_string(SetupReps) + " set-ups");
}

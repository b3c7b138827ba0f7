//===- perfbench/src/Programs.cpp - Compile, simulate and check programs --===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "support/Hash.h"

using namespace perfbench;
using namespace spt;

namespace {

/// Step budget of both simulators (their default) and of the reference.
constexpr uint64_t SimMaxSteps = 500000000ull;

/// Keeps the probed canonical hashes observable so the probe's work
/// cannot be optimized away.
volatile uint64_t CanonicalDigest = 0;

template <class SimResult>
void check(const std::string &What, const SimResult &Got, const ArchState &Ref,
           Result &R) {
  R.attempt();
  std::string Diff;
  if (Got.Result.I != Ref.Result.I)
    Diff += " Result";
  if (Got.Output != Ref.Output)
    Diff += " Output";
  if (Got.MemoryHash != Ref.MemoryHash)
    Diff += " MemoryHash";
  if (!Diff.empty())
    R.fail(What + ": differs from the reference interpreter in" + Diff);
}

} // namespace

ArchState perfbench::interpret(const Module &M, uint64_t RngSeed) {
  ArchState S;
  const Function *Main = M.findFunction("main");
  if (!Main)
    return S;
  InterpOptions IO;
  IO.RngSeed = RngSeed;
  const auto T0 = Clock::now();
  Interpreter I(M, IO);
  I.startCall(Main, {});
  S.Instrs = I.run(SimMaxSteps);
  S.Seconds = secondsSince(T0);
  S.Done = I.done();
  if (S.Done) {
    S.Result = I.returnValue();
    S.Output = I.output();
    S.MemoryHash = I.memoryHash();
  }
  return S;
}

double ProgramRun::speedup(size_t I) const {
  const SptSimResult &Spt = Modes[I].Spt;
  return Spt.Subticks == 0 ? 1.0 : Seq.cycles() / Spt.cycles();
}

ProgramRun perfbench::runProgram(const std::string &Name, const Lowering &Lower,
                                 const ArchState &Ref, const RunConfig &Cfg,
                                 Result &R) {
  ProgramRun Run;
  Run.Name = Name;
  if (!Ref.Done) {
    R.attempt();
    R.fail(Name + ": the reference interpreter did not finish");
    return Run;
  }
  ObsContext *Obs = Cfg.Obs;

  std::unique_ptr<Module> Base;
  {
    ObsSpan S(Obs, "lang.lower");
    Base = Lower();
  }
  {
    // The SPT pipeline runs generic cleanups; give the baseline the same
    // treatment so the speedup isolates speculation.
    ObsSpan S(Obs, "driver.cleanup");
    cleanupModule(*Base);
  }
  {
    ObsSpan S(Obs, "sim.runSequential");
    const auto T0 = Clock::now();
    Run.Seq = runSequential(*Base, "main", {}, MachineConfig(), SimMaxSteps,
                            Cfg.RngSeed);
    Run.SeqS = secondsSince(T0);
  }
  check(Name + "/sequential", Run.Seq, Ref, R);

  for (CompilationMode Mode : AllModes) {
    ModeRun MR;
    std::unique_ptr<Module> M;
    {
      ObsSpan S(Obs, "lang.lower");
      M = Lower();
    }
    SptCompilerOptions Opts =
        SptCompilerOptions().withMode(Mode).withSeed(Cfg.RngSeed);
    Opts.ProfileMaxSteps = Cfg.ProfileMaxSteps;
    if (Obs)
      Opts = Opts.withTracing(Obs);
    if (Obs)
      MR.TraceBeginNs = Obs->Trace.nowNs();
    {
      ObsSpan S(Obs, "driver.compileSpt");
      const auto T0 = Clock::now();
      MR.Report = compileSpt(*M, Opts);
      MR.CompileS = secondsSince(T0);
    }
    if (Obs)
      MR.TraceEndNs = Obs->Trace.nowNs();
    {
      ObsSpan S(Obs, "sim.call.runSpt");
      const auto T0 = Clock::now();
      MR.Spt = runSpt(*M, "main", {}, MR.Report.SptLoops, MachineConfig(),
                      SimMaxSteps, Cfg.RngSeed, nullptr, Obs);
      MR.SptS = secondsSince(T0);
    }
    check(Name + "/" + compilationModeName(Mode), MR.Spt, Ref, R);
    // The loop map points into M, which dies here.
    MR.Report.SptLoops.clear();
    Run.Modes.push_back(std::move(MR));
  }
  return Run;
}

void perfbench::countReport(const CompilationReport &Report, RunCounts &C) {
  C.LoopsSelected += Report.numSelected();
  for (const LoopRecord &L : Report.Loops)
    C.SvpApplied += L.SvpApplied ? 1 : 0;
}

RunCounts perfbench::countRuns(const std::vector<ProgramRun> &Runs) {
  RunCounts C;
  for (const ProgramRun &Run : Runs) {
    C.SeqInstrs += Run.Seq.Instrs;
    C.MemoHits += Run.Seq.Perf.MemoHits;
    C.MemoMisses += Run.Seq.Perf.MemoMisses;
    for (const ModeRun &MR : Run.Modes) {
      countReport(MR.Report, C);
      C.SptInstrs += MR.Spt.Instrs;
      C.MemoHits += MR.Spt.Perf.MemoHits;
      C.MemoMisses += MR.Spt.Perf.MemoMisses;
      for (const auto &[Id, L] : MR.Spt.PerLoop) {
        C.Joins += L.Joins;
        C.CleanJoins += L.Joins - L.ViolatedThreads;
        C.SpecInstrs += L.SpecInstrs;
        C.ReexecInstrs += L.ReexecInstrs;
      }
    }
  }
  return C;
}

std::array<double, 3>
perfbench::speedupGeomeans(const std::vector<ProgramRun> &Runs) {
  std::array<double, 3> Out{};
  for (size_t MI = 0; MI != AllModes.size(); ++MI) {
    std::vector<double> S;
    for (const ProgramRun &Run : Runs)
      if (Run.Modes.size() == AllModes.size())
        S.push_back(Run.speedup(MI));
    Out[MI] = geomean(S);
  }
  return Out;
}

double perfbench::probeProfile(const Module &M, uint64_t RngSeed,
                               uint64_t MaxSteps, uint64_t &Steps) {
  ProfilerOptions PO;
  PO.RngSeed = RngSeed;
  PO.MaxSteps = MaxSteps;
  const auto T0 = Clock::now();
  const ProfileBundle Bundle = profileRun(M, "main", {}, PO);
  const double Seconds = secondsSince(T0);
  Steps += Bundle.Instrs;
  return Seconds;
}

double perfbench::probeCanonicalize(const std::vector<std::string> &Sources,
                                    Result &R) {
  uint64_t Digest = 0;
  const auto T0 = Clock::now();
  for (const std::string &Source : Sources) {
    Parser P(Source);
    ProgramAst Ast = P.parseProgram();
    if (!P.errors().empty()) {
      R.attempt();
      R.fail("canonicalize: " + P.errors().front());
      continue;
    }
    Digest ^= fnv1a(programToSource(Ast));
  }
  const double Seconds = secondsSince(T0);
  CanonicalDigest = Digest;
  return Seconds;
}

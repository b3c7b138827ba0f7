//===- bench/perf_oracle.cpp - Dependence-oracle quality benchmark ----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures what measured dependence profiles buy, per workload, across
// three compiles of the same module (docs/profiling.md):
//
//   static    the "static" oracle — no edge counts, no dependence
//             profile, heuristic branch probabilities; the
//             no-measurement-at-all baseline,
//   in-run    the default ensemble with in-run profiling (the
//             production configuration when no artifact is supplied),
//   ensemble  the default ensemble fed a measured artifact for the
//             workload's input distribution,
//
// plus the wall time and interpreter steps to produce each artifact (the
// offline cost a user pays once per input distribution). All three
// binaries are simulated against the sequential baseline.
//
// Gates (the binary exits nonzero unless all hold):
//   * at least one workload's chosen partitioning changes between the
//     static-only and measured compiles — the measurements must actually
//     steer the partitioner;
//   * the measured artifact's simulated speedup matches or beats the
//     no-artifact production compile on EVERY workload — serializing
//     measurements through an artifact must never cost performance over
//     measuring in-run (with the unroll routing guard the two are
//     plan-identical, so this gate enforces that losslessness);
//   * every simulation's architectural results match the sequential run.
//
// The "oracle" block is merged into the perf_compile JSON (default
// BENCH_compile.json) for the bench trajectory.
//
// Flags: --quick (1 repeat), --repeat=N (keep the fastest of N compile
// timings), --out=PATH (JSON file to merge into).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "spt.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

using namespace spt;

namespace {

using Clock = std::chrono::steady_clock;

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

double timeBest(int Repeat, const std::function<void()> &Fn) {
  double Best = 1e100;
  for (int I = 0; I != Repeat; ++I) {
    const auto T0 = Clock::now();
    Fn();
    const double Sec = std::chrono::duration<double>(Clock::now() - T0).count();
    Best = Sec < Best ? Sec : Best;
  }
  return Best;
}

/// The partitioning decisions of one report: per loop, whether it was
/// selected and which statements the partition chose to speculate.
/// Two reports with equal signatures chose the same plan.
std::string partitionSignature(const CompilationReport &R) {
  std::string Sig;
  std::istringstream In(renderReportDeterministic(R));
  std::string L;
  while (std::getline(In, L)) {
    if (L.find("selected=") != std::string::npos) {
      // "loop f:3 depth=... selected=1 sptId=..." — keep the loop
      // identity and the verdict.
      Sig += L.substr(0, L.find(" depth="));
      const size_t Sel = L.find("selected=");
      // Built up with += rather than "+ L.substr(...) +": GCC 12's -O3
      // -Werror=restrict trips a false positive (PR105651) on the
      // temporary-string operator+ chain, as in lang/AstPrinter.cpp.
      Sig += ' ';
      Sig += L.substr(Sel, L.find(' ', Sel) - Sel);
      Sig += '\n';
    } else if (L.find("chosen=") != std::string::npos) {
      const size_t At = L.find("chosen=");
      Sig += L.substr(At);
      Sig += '\n';
    }
  }
  return Sig;
}

struct RowResult {
  std::string Name;
  uint64_t ProfileSteps = 0;
  size_t Loops = 0, Pairs = 0;
  double SecProfile = 0.0, SecStatic = 0.0, SecInrun = 0.0, SecEnsemble = 0.0;
  double SpeedupStatic = 1.0, SpeedupInrun = 1.0, SpeedupEnsemble = 1.0;
  bool PartitionChangedVsStatic = false;
  bool RegressesVsInrun = false;
  bool ChecksumsMatch = true;
};

RowResult runWorkload(const Workload &W, int Repeat) {
  RowResult Row;
  Row.Name = W.Name;

  // Offline profiling cost: one artifact per (workload, distribution).
  auto Base = compileWorkload(W);
  DepProfilerOptions PO;
  PO.Workload = W.Name;
  const auto P0 = Clock::now();
  StatusOr<DepProfileArtifact> ArtifactOr = profileDependenceArtifact(*Base, PO);
  Row.SecProfile =
      std::chrono::duration<double>(Clock::now() - P0).count();
  Row.SecProfile = std::min(
      Row.SecProfile, timeBest(Repeat - 1, [&] {
        ArtifactOr = profileDependenceArtifact(*Base, PO);
      }));
  if (!ArtifactOr.isOk()) {
    errs() << W.Name << ": profiling failed: " << ArtifactOr.message()
           << "\n";
    std::exit(1);
  }
  auto Artifact = std::make_shared<DepProfileArtifact>(ArtifactOr.value());
  Row.ProfileSteps = Artifact->Steps;
  Row.Loops = Artifact->Loops.size();
  for (const DepArtifactLoop &L : Artifact->Loops)
    Row.Pairs += L.Pairs.size();

  // Static-only: heuristic branch probabilities, frequency-ratio
  // dependence probabilities, nothing measured anywhere.
  std::shared_ptr<Module> StaticM;
  CompilationReport StaticR;
  Row.SecStatic = timeBest(Repeat, [&] {
    StaticM = compileWorkload(W);
    StaticR = compileSpt(*StaticM, SptCompilerOptions::best()
                                       .withDependenceOracle("static"));
  });

  // The production default: ensemble with in-run profiling, no artifact.
  std::shared_ptr<Module> InrunM;
  CompilationReport InrunR;
  Row.SecInrun = timeBest(Repeat, [&] {
    InrunM = compileWorkload(W);
    InrunR = compileSpt(*InrunM, SptCompilerOptions::best());
  });

  // The default ensemble with the measured artifact installed.
  std::shared_ptr<Module> EnsembleM;
  CompilationReport EnsembleR;
  Row.SecEnsemble = timeBest(Repeat, [&] {
    EnsembleM = compileWorkload(W);
    EnsembleR = compileSpt(
        *EnsembleM,
        SptCompilerOptions::best().withProfileArtifact(Artifact, W.Name));
  });

  Row.PartitionChangedVsStatic =
      partitionSignature(StaticR) != partitionSignature(EnsembleR);

  // Simulate all three against the sequential baseline; an incorrect
  // binary disqualifies the whole row.
  SeqSimResult Seq = runSequential(*compileWorkload(W), "main", {});
  SptSimResult Static = runSpt(*StaticM, "main", {}, StaticR.SptLoops);
  SptSimResult Inrun = runSpt(*InrunM, "main", {}, InrunR.SptLoops);
  SptSimResult Ensemble = runSpt(*EnsembleM, "main", {}, EnsembleR.SptLoops);
  Row.ChecksumsMatch = Seq.Result.I == Static.Result.I &&
                       Seq.Result.I == Inrun.Result.I &&
                       Seq.Result.I == Ensemble.Result.I &&
                       Seq.MemoryHash == Static.MemoryHash &&
                       Seq.MemoryHash == Inrun.MemoryHash &&
                       Seq.MemoryHash == Ensemble.MemoryHash;
  Row.SpeedupStatic =
      Static.Subticks == 0 ? 1.0 : Seq.cycles() / Static.cycles();
  Row.SpeedupInrun =
      Inrun.Subticks == 0 ? 1.0 : Seq.cycles() / Inrun.cycles();
  Row.SpeedupEnsemble =
      Ensemble.Subticks == 0 ? 1.0 : Seq.cycles() / Ensemble.cycles();
  // A hair of float tolerance: the artifact must never cost simulated
  // performance relative to measuring in-run.
  Row.RegressesVsInrun =
      Row.SpeedupEnsemble < Row.SpeedupInrun * (1.0 - 1e-9);
  return Row;
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

  outs() << "==============================================================\n";
  outs() << " perf_oracle: measured dependence profiles vs static-only\n";
  outs() << " static = heuristics only; in-run = default (profiled during\n";
  outs() << " the compile); ensemble = measured artifact installed.\n";
  outs() << " Speedups simulated vs sequential; repeat = " << Repeat << "\n";
  outs() << "==============================================================\n";

  std::vector<RowResult> Rows;
  for (const Workload &W : allWorkloads())
    Rows.push_back(runWorkload(W, Repeat));

  Table T({"workload", "profile (s)", "steps", "pairs", "static spdup",
           "in-run spdup", "ensemble spdup", "partition vs static",
           "vs in-run", "correct"});
  size_t Changed = 0;
  bool AllCorrect = true, NoRegression = true;
  double ProfileTotal = 0.0;
  for (const RowResult &R : Rows) {
    Changed += R.PartitionChangedVsStatic ? 1 : 0;
    AllCorrect = AllCorrect && R.ChecksumsMatch;
    NoRegression = NoRegression && !R.RegressesVsInrun;
    ProfileTotal += R.SecProfile;
    T.beginRow();
    T.cell(R.Name);
    T.cell(fmt(R.SecProfile));
    T.cell(R.ProfileSteps);
    T.cell(R.Pairs);
    T.cell(fmt2(R.SpeedupStatic));
    T.cell(fmt2(R.SpeedupInrun));
    T.cell(fmt2(R.SpeedupEnsemble));
    T.cell(R.PartitionChangedVsStatic ? "changed" : "same");
    T.cell(R.RegressesVsInrun ? "REGRESS" : "ok");
    T.cell(R.ChecksumsMatch ? "yes" : "NO");
  }
  T.print(outs());

  outs() << "\n" << Changed << "/" << Rows.size()
         << " workloads changed partitioning vs static-only, "
         << "profile overhead " << fmt(ProfileTotal) << " s total, "
         << (NoRegression ? "no regressions vs the in-run default"
                          : "ARTIFACT REGRESSED VS IN-RUN")
         << ", checksums "
         << (AllCorrect ? "all match\n" : "DIVERGED\n");

  std::string Block = "{\n    \"rows\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const RowResult &R = Rows[I];
    Block += "      {\"name\": \"" + R.Name + "\"";
    Block += ", \"profile_seconds\": " + fmt(R.SecProfile);
    Block += ", \"profile_steps\": " + std::to_string(R.ProfileSteps);
    Block += ", \"profile_loops\": " + std::to_string(R.Loops);
    Block += ", \"profile_pairs\": " + std::to_string(R.Pairs);
    Block += ", \"compile_static_seconds\": " + fmt(R.SecStatic);
    Block += ", \"compile_inrun_seconds\": " + fmt(R.SecInrun);
    Block += ", \"compile_ensemble_seconds\": " + fmt(R.SecEnsemble);
    Block += ", \"speedup_static\": " + fmt2(R.SpeedupStatic);
    Block += ", \"speedup_inrun\": " + fmt2(R.SpeedupInrun);
    Block += ", \"speedup_ensemble\": " + fmt2(R.SpeedupEnsemble);
    Block += std::string(", \"partition_changed_vs_static\": ") +
             (R.PartitionChangedVsStatic ? "true" : "false");
    Block += std::string(", \"regresses_vs_inrun\": ") +
             (R.RegressesVsInrun ? "true" : "false");
    Block += std::string(", \"checksums_match\": ") +
             (R.ChecksumsMatch ? "true" : "false") + "}";
    Block += I + 1 != Rows.size() ? ",\n" : "\n";
  }
  Block += "    ],\n";
  Block += "    \"summary\": {";
  Block += "\"workloads\": " + std::to_string(Rows.size());
  Block += ", \"partitions_changed_vs_static\": " + std::to_string(Changed);
  Block += ", \"profile_seconds_total\": " + fmt(ProfileTotal);
  Block += std::string(", \"no_regression_vs_inrun\": ") +
           (NoRegression ? "true" : "false");
  Block += std::string(", \"checksums_match\": ") +
           (AllCorrect ? "true" : "false");
  Block += "}\n  }";

  if (!bench::mergeJsonBlock(OutPath, "oracle", Block)) {
    errs() << "cannot merge the \"oracle\" block into " << OutPath << "\n";
    return 1;
  }
  outs() << "merged \"oracle\" block into " << OutPath << "\n";

  return Changed > 0 && NoRegression && AllCorrect ? 0 : 1;
}

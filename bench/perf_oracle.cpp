//===- bench/perf_oracle.cpp - Measured dependence-profile benchmark ------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures what measured dependence profiles buy, per workload, across
// three compiles of the same module (docs/profiling.md):
//
//   no-deps   Best with Enabling.EnableDepProfiles off — edge counts but
//             no dependence measurements, so every memory edge takes the
//             frequency-ratio heuristic; the baseline,
//   in-run    Best with in-run dependence profiling (the production
//             configuration when no artifact is supplied),
//   artifact  Best fed a measured artifact for the workload's input
//             distribution,
//
// plus the wall time and interpreter steps to produce each artifact (the
// offline cost a user pays once per input distribution). All three
// binaries are simulated against the sequential baseline.
//
// Gates (the binary exits nonzero unless all hold):
//   * at least one workload's chosen partitioning changes between the
//     no-deps and artifact compiles — the measurements must actually
//     steer the partitioner;
//   * the measured artifact's simulated speedup matches or beats the
//     no-artifact production compile on EVERY workload — serializing
//     measurements through an artifact must never cost performance over
//     measuring in-run (unrolled loops ignore the artifact, which makes
//     the two plan-identical, so this gate enforces that losslessness);
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
  double SecProfile = 0.0, SecNoDeps = 0.0, SecInrun = 0.0;
  double SecArtifact = 0.0;
  double SpeedupNoDeps = 1.0, SpeedupInrun = 1.0, SpeedupArtifact = 1.0;
  bool PartitionChangedVsNoDeps = false;
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
    Row.Pairs += L.Profile.Pairs.size();

  // No dependence measurements: measured branch probabilities, but every
  // memory edge priced by the frequency-ratio heuristic.
  std::shared_ptr<Module> NoDepsM;
  CompilationReport NoDepsR;
  Row.SecNoDeps = timeBest(Repeat, [&] {
    NoDepsM = compileWorkload(W);
    SptCompilerOptions O = SptCompilerOptions::best();
    O.Enabling.EnableDepProfiles = false;
    NoDepsR = compileSpt(*NoDepsM, O);
  });

  // The production default: in-run profiling, no artifact.
  std::shared_ptr<Module> InrunM;
  CompilationReport InrunR;
  Row.SecInrun = timeBest(Repeat, [&] {
    InrunM = compileWorkload(W);
    InrunR = compileSpt(*InrunM, SptCompilerOptions::best());
  });

  // The measured artifact installed.
  std::shared_ptr<Module> ArtifactM;
  CompilationReport ArtifactR;
  Row.SecArtifact = timeBest(Repeat, [&] {
    ArtifactM = compileWorkload(W);
    ArtifactR = compileSpt(
        *ArtifactM,
        SptCompilerOptions::best().withProfileArtifact(Artifact, W.Name));
  });

  Row.PartitionChangedVsNoDeps =
      partitionSignature(NoDepsR) != partitionSignature(ArtifactR);

  // Simulate all three against the sequential baseline; an incorrect
  // binary disqualifies the whole row.
  SeqSimResult Seq = runSequential(*compileWorkload(W), "main", {});
  SptSimResult NoDeps = runSpt(*NoDepsM, "main", {}, NoDepsR.SptLoops);
  SptSimResult Inrun = runSpt(*InrunM, "main", {}, InrunR.SptLoops);
  SptSimResult FromArtifact =
      runSpt(*ArtifactM, "main", {}, ArtifactR.SptLoops);
  Row.ChecksumsMatch = Seq.Result.I == NoDeps.Result.I &&
                       Seq.Result.I == Inrun.Result.I &&
                       Seq.Result.I == FromArtifact.Result.I &&
                       Seq.MemoryHash == NoDeps.MemoryHash &&
                       Seq.MemoryHash == Inrun.MemoryHash &&
                       Seq.MemoryHash == FromArtifact.MemoryHash;
  Row.SpeedupNoDeps =
      NoDeps.Subticks == 0 ? 1.0 : Seq.cycles() / NoDeps.cycles();
  Row.SpeedupInrun =
      Inrun.Subticks == 0 ? 1.0 : Seq.cycles() / Inrun.cycles();
  Row.SpeedupArtifact = FromArtifact.Subticks == 0
                            ? 1.0
                            : Seq.cycles() / FromArtifact.cycles();
  // A hair of float tolerance: the artifact must never cost simulated
  // performance relative to measuring in-run.
  Row.RegressesVsInrun =
      Row.SpeedupArtifact < Row.SpeedupInrun * (1.0 - 1e-9);
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
  outs() << " perf_oracle: measured dependence profiles vs none\n";
  outs() << " no-deps = no dependence measurements; in-run = default\n";
  outs() << " (profiled during the compile); artifact = measured artifact.\n";
  outs() << " Speedups simulated vs sequential; repeat = " << Repeat << "\n";
  outs() << "==============================================================\n";

  std::vector<RowResult> Rows;
  for (const Workload &W : allWorkloads())
    Rows.push_back(runWorkload(W, Repeat));

  Table T({"workload", "profile (s)", "steps", "pairs", "no-deps spdup",
           "in-run spdup", "artifact spdup", "partition vs no-deps",
           "vs in-run", "correct"});
  size_t Changed = 0;
  bool AllCorrect = true, NoRegression = true;
  double ProfileTotal = 0.0;
  for (const RowResult &R : Rows) {
    Changed += R.PartitionChangedVsNoDeps ? 1 : 0;
    AllCorrect = AllCorrect && R.ChecksumsMatch;
    NoRegression = NoRegression && !R.RegressesVsInrun;
    ProfileTotal += R.SecProfile;
    T.beginRow();
    T.cell(R.Name);
    T.cell(fmt(R.SecProfile));
    T.cell(R.ProfileSteps);
    T.cell(R.Pairs);
    T.cell(fmt2(R.SpeedupNoDeps));
    T.cell(fmt2(R.SpeedupInrun));
    T.cell(fmt2(R.SpeedupArtifact));
    T.cell(R.PartitionChangedVsNoDeps ? "changed" : "same");
    T.cell(R.RegressesVsInrun ? "REGRESS" : "ok");
    T.cell(R.ChecksumsMatch ? "yes" : "NO");
  }
  T.print(outs());

  outs() << "\n" << Changed << "/" << Rows.size()
         << " workloads changed partitioning vs no-deps, "
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
    Block += ", \"compile_nodeps_seconds\": " + fmt(R.SecNoDeps);
    Block += ", \"compile_inrun_seconds\": " + fmt(R.SecInrun);
    Block += ", \"compile_artifact_seconds\": " + fmt(R.SecArtifact);
    Block += ", \"speedup_nodeps\": " + fmt2(R.SpeedupNoDeps);
    Block += ", \"speedup_inrun\": " + fmt2(R.SpeedupInrun);
    Block += ", \"speedup_artifact\": " + fmt2(R.SpeedupArtifact);
    Block += std::string(", \"partition_changed_vs_nodeps\": ") +
             (R.PartitionChangedVsNoDeps ? "true" : "false");
    Block += std::string(", \"regresses_vs_inrun\": ") +
             (R.RegressesVsInrun ? "true" : "false");
    Block += std::string(", \"checksums_match\": ") +
             (R.ChecksumsMatch ? "true" : "false") + "}";
    Block += I + 1 != Rows.size() ? ",\n" : "\n";
  }
  Block += "    ],\n";
  Block += "    \"summary\": {";
  Block += "\"workloads\": " + std::to_string(Rows.size());
  Block += ", \"partitions_changed_vs_nodeps\": " + std::to_string(Changed);
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

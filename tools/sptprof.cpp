//===- tools/sptprof.cpp - Dependence-profile artifact CLI -----------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Produces, inspects and diffs the checksum-verified dependence-profile
// artifacts the compiler prices memory dependences from
// (docs/profiling.md). Modes:
//
//   sptprof --selfcheck       deterministic acceptance sweep: artifact
//                             determinism, round-trip with corruption
//                             rejection, drift separation of shifted input
//                             distributions, cache-key divergence and the
//                             foreign-module handshake; CI entry point
//   sptprof --suite           profile every workload; write one artifact
//                             per workload under --out (default .)
//   sptprof --workload NAME   profile one workload to --out (default
//                             NAME.sptprof)
//   sptprof --diff A B        parse two artifacts and print their drift
//                             against the default staleness threshold
//
// Artifacts are deterministic for fixed (program, entry, args, steps), so
// every mode is byte-reproducible.
//
//===----------------------------------------------------------------------===//

#include "spt.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace spt;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: sptprof MODE [options]\n"
      "\n"
      "modes:\n"
      "  --selfcheck        run the deterministic artifact acceptance\n"
      "                     sweep; exits 1 on any failure\n"
      "  --suite            profile every workload, one artifact each\n"
      "  --workload NAME    profile one workload\n"
      "  --diff A B         print the drift between two artifacts\n"
      "\n"
      "options:\n"
      "  --out PATH         artifact file (--workload) or directory\n"
      "                     (--suite); default NAME.sptprof / .\n"
      "  --entry NAME       entry function of the profiling run\n"
      "                     (default main)\n"
      "  --steps N          interpreter step budget (default 500000000)\n"
      "  --label S          workload label recorded in the artifact\n"
      "                     (default the workload's name)\n");
}

bool parseUint(const char *S, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End && *End == '\0' && End != S;
}

size_t totalPairs(const DepProfileArtifact &A) {
  size_t N = 0;
  for (const DepArtifactLoop &L : A.Loops)
    N += L.Profile.Pairs.size();
  return N;
}

bool writeArtifact(const DepProfileArtifact &A, const std::string &Path) {
  std::ofstream Out(Path);
  Out << serializeDepProfile(A);
  if (!Out) {
    std::fprintf(stderr, "sptprof: cannot write %s\n", Path.c_str());
    return false;
  }
  return true;
}

int profileOne(const Workload &W, const std::string &OutPath,
               const DepProfilerOptions &Base) {
  std::unique_ptr<Module> M = compileWorkload(W);
  DepProfilerOptions O = Base;
  if (O.Workload.empty())
    O.Workload = W.Name;
  StatusOr<DepProfileArtifact> A = profileDependenceArtifact(*M, O);
  if (!A.isOk()) {
    std::fprintf(stderr, "sptprof: %s: %s\n", W.Name.c_str(),
                 A.message().c_str());
    return 1;
  }
  if (!writeArtifact(A.value(), OutPath))
    return 1;
  std::fprintf(stderr,
               "sptprof: %-12s %8llu steps  %2zu loops  %4zu pairs  "
               "checksum %016llx -> %s\n",
               W.Name.c_str(),
               static_cast<unsigned long long>(A.value().Steps),
               A.value().Loops.size(), totalPairs(A.value()),
               static_cast<unsigned long long>(A.value().Checksum),
               OutPath.c_str());
  return 0;
}

StatusOr<DepProfileArtifact> readArtifact(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return Status::error("cannot read " + Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return parseDepProfile(Buf.str());
}

//===----------------------------------------------------------------------===//
// --selfcheck
//===----------------------------------------------------------------------===//

/// Conflict density keyed off the entry argument — the same program the
/// drift scenario in sptserve --selfcheck and dep_oracle_test use.
const char *MaskedRecurrenceSrc =
    "int a[256];\n"
    "int work(int mask) {\n"
    "  int i; int s;\n"
    "  s = 0;\n"
    "  a[0] = 1;\n"
    "  for (i = 1; i < 256; i = i + 1) {\n"
    "    if (i % (mask + 1) == 0) { a[i] = a[i - 1] + 3; }\n"
    "    else { a[i] = i; }\n"
    "    s = s + a[i];\n"
    "  }\n"
    "  return s;\n"
    "}\n"
    "int main() {\n"
    "  return work(0);\n"
    "}\n";

int Failures = 0;

void check(bool Ok, const char *What) {
  std::fprintf(stderr, "sptprof:   %-58s %s\n", What, Ok ? "ok" : "FAIL");
  if (!Ok)
    ++Failures;
}

DepProfileArtifact maskedArtifact(const Module &M, int64_t Mask) {
  DepProfilerOptions O;
  O.Entry = "work";
  O.Args = {Value::ofInt(Mask)};
  O.Workload = "masked";
  StatusOr<DepProfileArtifact> A = profileDependenceArtifact(M, O);
  if (!A.isOk()) {
    std::fprintf(stderr, "sptprof: masked profile failed: %s\n",
                 A.message().c_str());
    std::exit(1);
  }
  return A.value();
}

int selfcheck() {
  std::fprintf(stderr, "sptprof: selfcheck\n");

  CompileResult CR = compileSource(MaskedRecurrenceSrc);
  if (!CR.ok()) {
    std::fprintf(stderr, "sptprof: selfcheck program failed to compile\n");
    return 1;
  }

  // Determinism and round-trip.
  DepProfileArtifact Dense = maskedArtifact(*CR.M, 0);
  DepProfileArtifact Dense2 = maskedArtifact(*CR.M, 0);
  DepProfileArtifact Sparse = maskedArtifact(*CR.M, 255);
  const std::string Text = serializeDepProfile(Dense);
  check(Text == serializeDepProfile(Dense2),
        "repeated profiling runs serialize byte-identically");
  StatusOr<DepProfileArtifact> RT = parseDepProfile(Text);
  check(RT.isOk() && serializeDepProfile(RT.value()) == Text,
        "artifacts round-trip through parse + reserialize");

  // Corruption: flipping one payload byte must fail checksum or
  // structural verification.
  bool AllRejected = true;
  for (size_t At = 0; At < Text.size(); At += 7) {
    std::string Corrupt = Text;
    Corrupt[At] = Corrupt[At] == 'x' ? 'y' : 'x';
    if (parseDepProfile(Corrupt).isOk())
      AllRejected = false;
  }
  check(AllRejected, "every single-byte corruption is rejected");

  // Drift separates input distributions.
  const double Threshold = DepProfileDriftThreshold;
  check(depProfileDrift(Dense, Dense2) == 0.0,
        "identical input distributions measure zero drift");
  check(depProfileDrift(Dense, Sparse) > Threshold,
        "a shifted input distribution clears the staleness threshold");
  check(depProfileDrift(Dense, Sparse) == depProfileDrift(Sparse, Dense),
        "drift is symmetric");

  // Cache-key integration: artifacts move the serve fingerprint.
  auto Shared = std::make_shared<DepProfileArtifact>(Dense);
  auto SharedSparse = std::make_shared<DepProfileArtifact>(Sparse);
  SptCompilerOptions Plain;
  check(compilerOptionsFingerprint(Plain) !=
            compilerOptionsFingerprint(Plain.withProfileArtifact(Shared)),
        "attaching an artifact changes the compile-cache key");
  check(compilerOptionsFingerprint(Plain.withProfileArtifact(Shared)) !=
            compilerOptionsFingerprint(
                Plain.withProfileArtifact(SharedSparse)),
        "different measurements map to different cache keys");

  // Compiling with the matching artifact completes and is deterministic.
  {
    CompileResult C1 = compileSource(MaskedRecurrenceSrc);
    CompileResult C2 = compileSource(MaskedRecurrenceSrc);
    SptCompilerOptions O = Plain.withProfileArtifact(Shared, "selfcheck");
    CompilationReport R1 = compileSpt(*C1.M, O);
    CompilationReport R2 = compileSpt(*C2.M, O);
    check(renderReportDeterministic(R1) == renderReportDeterministic(R2),
          "compiles with a measured artifact are deterministic");
    bool SawHandshakeWarn = false;
    for (const Diagnostic &D : R1.Diags.all())
      SawHandshakeWarn |=
          D.Detail.find("different module") != std::string::npos;
    check(!SawHandshakeWarn,
          "a matching artifact passes the module handshake");
  }

  // The foreign-module handshake: a workload's artifact fed to the
  // masked program is ignored with a diagnostic.
  {
    const Workload &W = allWorkloads().front();
    std::unique_ptr<Module> WM = compileWorkload(W);
    DepProfilerOptions WO;
    WO.Workload = W.Name;
    StatusOr<DepProfileArtifact> WA = profileDependenceArtifact(*WM, WO);
    check(WA.isOk(), "profiling the first workload succeeds");
    if (WA.isOk()) {
      CompileResult C3 = compileSource(MaskedRecurrenceSrc);
      SptCompilerOptions O = Plain.withProfileArtifact(
          std::make_shared<DepProfileArtifact>(WA.value()), W.Name);
      CompilationReport R = compileSpt(*C3.M, O);
      bool Saw = false;
      for (const Diagnostic &D : R.Diags.all())
        Saw |= D.Detail.find("different module") != std::string::npos;
      check(Saw, "a foreign-module artifact is ignored with a diagnostic");
    }
  }

  std::fprintf(stderr, "sptprof: selfcheck %s (%d failure%s)\n",
               Failures == 0 ? "passed" : "FAILED", Failures,
               Failures == 1 ? "" : "s");
  return Failures == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Selfcheck = false, Suite = false;
  std::string WorkloadName, OutPath, DiffA, DiffB;
  DepProfilerOptions Base;
  Base.Workload.clear();

  for (int I = 1; I != Argc; ++I) {
    const std::string Arg = Argv[I];
    auto next = [&](const char *Flag) -> const char * {
      if (I + 1 == Argc) {
        std::fprintf(stderr, "sptprof: %s needs a value\n", Flag);
        std::exit(2);
      }
      return Argv[++I];
    };
    if (Arg == "--selfcheck") {
      Selfcheck = true;
    } else if (Arg == "--suite") {
      Suite = true;
    } else if (Arg == "--workload") {
      WorkloadName = next("--workload");
    } else if (Arg == "--diff") {
      DiffA = next("--diff");
      DiffB = next("--diff");
    } else if (Arg == "--out") {
      OutPath = next("--out");
    } else if (Arg == "--entry") {
      Base.Entry = next("--entry");
    } else if (Arg == "--label") {
      Base.Workload = next("--label");
    } else if (Arg == "--steps") {
      if (!parseUint(next("--steps"), Base.MaxSteps)) {
        std::fprintf(stderr, "sptprof: bad --steps value\n");
        return 2;
      }
    } else {
      usage();
      return 2;
    }
  }

  if (Selfcheck)
    return selfcheck();

  if (!DiffA.empty()) {
    StatusOr<DepProfileArtifact> A = readArtifact(DiffA);
    StatusOr<DepProfileArtifact> B = readArtifact(DiffB);
    if (!A.isOk() || !B.isOk()) {
      std::fprintf(stderr, "sptprof: %s\n",
                   (!A.isOk() ? A : B).message().c_str());
      return 1;
    }
    const double Drift = depProfileDrift(A.value(), B.value());
    const double Threshold = DepProfileDriftThreshold;
    std::printf("drift %.6f threshold %.2f verdict %s\n", Drift, Threshold,
                Drift > Threshold ? "stale" : "fresh");
    return 0;
  }

  if (Suite) {
    const std::string Dir = OutPath.empty() ? "." : OutPath;
    int Rc = 0;
    for (const Workload &W : allWorkloads())
      Rc |= profileOne(W, Dir + "/" + W.Name + ".sptprof", Base);
    return Rc;
  }

  if (!WorkloadName.empty()) {
    const Workload &W = workloadByName(WorkloadName);
    return profileOne(
        W, OutPath.empty() ? W.Name + ".sptprof" : OutPath, Base);
  }

  usage();
  return 2;
}

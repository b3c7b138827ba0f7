//===- bench/fig14_kway.cpp - K-way core-count sweep --------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Sweeps the machine's core count (1, 2, 4, 8) over every workload under
// the BEST compilation and reports the speedup of the SPT execution over
// the sequential baseline at each width. Two gates make the sweep
// trustworthy rather than merely plausible:
//
//  - reports_identical: at Cores=2 the generalized N-core engine must be
//    byte-identical to the two-core reference engine kept as a test
//    oracle in testing/ReferenceSptSim.h — subticks, instruction counts,
//    architectural state, every per-loop counter.
//  - every width preserves the workload's checksum (evaluateWorkload
//    aborts on divergence), so no speedup is reported from a wrong run.
//
// The paper's machine is the 2-core SPT pair; the sweep shows how the
// cost-driven partitions scale when the chain of speculative cores grows,
// with at least one parallel workload expected to improve from 2 to 4.
// Results merge into the compile-bench JSON as the "kway" block.
//
// Flags: --quick (first 3 workloads only), --out=PATH.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "spt.h"
#include "testing/ReferenceSptSim.h"

#include <cstdio>
#include <cstring>

using namespace spt;
using namespace spt::bench;

namespace {

const uint32_t kCores[] = {1, 2, 4, 8};

std::string fmt2(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.2f", V);
  return Buf;
}

/// Full-result equality, the same contract the kway-diff fuzz oracle
/// enforces (CoreStats excluded: the reference engine reports none).
bool sameSpt(const SptSimResult &A, const SptSimResult &B) {
  if (A.Subticks != B.Subticks || A.Instrs != B.Instrs ||
      A.Result.I != B.Result.I || A.Output != B.Output ||
      A.MemoryHash != B.MemoryHash || A.PerLoop.size() != B.PerLoop.size())
    return false;
  auto IA = A.PerLoop.begin();
  auto IB = B.PerLoop.begin();
  for (; IA != A.PerLoop.end(); ++IA, ++IB)
    if (IA->first != IB->first ||
        std::memcmp(&IA->second, &IB->second, sizeof(SptLoopRunStats)) != 0)
      return false;
  return true;
}

struct SweepRow {
  std::string Name;
  double Speedup[4] = {0, 0, 0, 0};
  uint64_t Subticks[4] = {0, 0, 0, 0};
  bool ReportsIdentical = false; ///< Generalized vs reference at Cores=2.
  bool Monotone24 = false;       ///< speedup(4) >= speedup(2).
};

SweepRow sweepWorkload(const Workload &W) {
  SweepRow Row;
  Row.Name = W.Name;
  for (size_t CI = 0; CI != 4; ++CI) {
    EvalOptions EO;
    EO.Machine.Cores = kCores[CI];
    EO.Compiler = EO.Compiler.withCores(kCores[CI]);
    WorkloadEval E =
        evaluateWorkload(W, {CompilationMode::Best}, EO);
    const ModeEval &ME = E.Modes.at(CompilationMode::Best);
    Row.Subticks[CI] = ME.Spt.Subticks;
    Row.Speedup[CI] = ME.speedupOver(E.Seq);
    if (kCores[CI] == 2) {
      // Differential: replay the identical run through the two-core
      // reference engine and demand byte-identity.
      const SptSimResult Ref =
          runSptTwoCore(*ME.M, "main", {}, ME.Report.SptLoops, EO.Machine);
      Row.ReportsIdentical = sameSpt(ME.Spt, Ref);
    }
  }
  Row.Monotone24 = Row.Speedup[2] >= Row.Speedup[1] - 1e-9;
  return Row;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  std::string OutPath = "BENCH_compile.json";
  for (int I = 1; I != Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--quick") {
      Quick = true;
    } else if (Arg.rfind("--out=", 0) == 0) {
      OutPath = Arg.substr(6);
    } else {
      errs() << "unknown flag: " << Arg << " (expected --quick --out=PATH)\n";
      return 2;
    }
  }

  outs() << "==============================================================\n";
  outs() << " fig14_kway: speedup over base vs machine width (BEST mode)\n";
  outs() << " gate: Cores=2 generalized == two-core reference, bytewise\n";
  outs() << "==============================================================\n";

  std::vector<Workload> Suite = allWorkloads();
  if (Quick && Suite.size() > 3)
    Suite.resize(3);

  std::vector<SweepRow> Rows;
  for (const Workload &W : Suite) {
    outs() << "  sweeping " << W.Name << "...\n";
    Rows.push_back(sweepWorkload(W));
  }

  Table T({"program", "1 core", "2 cores", "4 cores", "8 cores",
           "2-core identical", "monotone 2->4"});
  bool AllIdentical = true;
  bool AnyMonotone = false;
  double Sum[4] = {0, 0, 0, 0};
  for (const SweepRow &R : Rows) {
    AllIdentical = AllIdentical && R.ReportsIdentical;
    AnyMonotone = AnyMonotone || (R.Monotone24 && R.Speedup[1] > 1.0);
    T.beginRow();
    T.cell(R.Name);
    for (size_t CI = 0; CI != 4; ++CI) {
      Sum[CI] += R.Speedup[CI] - 1.0;
      T.percentCell(R.Speedup[CI] - 1.0, 1);
    }
    T.cell(R.ReportsIdentical ? "yes" : "NO");
    T.cell(R.Monotone24 ? "yes" : "no");
  }
  T.beginRow();
  T.cell(std::string("average"));
  for (size_t CI = 0; CI != 4; ++CI)
    T.percentCell(Sum[CI] / static_cast<double>(Rows.size()), 1);
  T.cell(std::string(""));
  T.cell(std::string(""));
  T.print(outs());

  outs() << "\nShape check: one core cannot speculate (the compiler turns\n"
            "speculation off below a pair); two cores reproduce the paper's\n"
            "machine bit-for-bit; wider chains help exactly the workloads\n"
            "whose partitions carry little misspeculation cost.\n";

  std::string Block = "{\n    \"rows\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const SweepRow &R = Rows[I];
    Block += "      {\"name\": \"" + R.Name + "\", \"cores\": [";
    for (size_t CI = 0; CI != 4; ++CI) {
      Block += "{\"cores\": " + std::to_string(kCores[CI]);
      Block += ", \"subticks\": " + std::to_string(R.Subticks[CI]);
      Block += ", \"speedup\": " + fmt2(R.Speedup[CI]) + "}";
      if (CI != 3)
        Block += ", ";
    }
    Block += "]";
    Block += std::string(", \"reports_identical\": ") +
             (R.ReportsIdentical ? "true" : "false");
    Block += std::string(", \"monotone_2_to_4\": ") +
             (R.Monotone24 ? "true" : "false") + "}";
    Block += I + 1 != Rows.size() ? ",\n" : "\n";
  }
  Block += "    ],\n";
  Block += std::string("    \"reports_identical\": ") +
           (AllIdentical ? "true" : "false");
  Block += std::string(", \"any_speedup_monotone_2_to_4\": ") +
           (AnyMonotone ? "true" : "false");
  Block += "\n  }";

  if (!bench::mergeJsonBlock(OutPath, "kway", Block)) {
    errs() << "cannot merge the \"kway\" block into " << OutPath << "\n";
    return 1;
  }
  outs() << "merged \"kway\" block into " << OutPath << "\n";

  if (!AllIdentical)
    errs() << "FAILED: generalized engine diverged from the two-core "
              "reference\n";
  if (!AnyMonotone)
    errs() << "FAILED: no workload improved monotonically from 2 to 4 "
              "cores\n";
  return AllIdentical && AnyMonotone ? 0 : 1;
}

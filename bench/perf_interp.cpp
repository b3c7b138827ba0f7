//===- bench/perf_interp.cpp - Interpreter throughput benchmark --------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Times the interpreter's two engines against each other:
//
//   ref      the tree-walking switch engine (InterpDispatch::Reference),
//            one StepResult built and returned per instruction,
//   decoded  the pre-decoded flat stream with threaded dispatch and
//            superinstruction fusion (InterpDispatch::Decoded), run
//            record-free through run().
//
// Nodes are retired IR instructions. Every kernel is also executed once
// through both engines with full record streams and compared — chained
// hashStepResult over every record, plus output, return value and
// memoryHash — and the aggregate decoded throughput must be at least 2x
// the reference engine's, or the binary fails loudly: a perf regression
// in the hot loop is a build failure, not a trend-line footnote.
//
// The "interpreter" block is merged into the perf_compile JSON (default
// BENCH_compile.json) for the bench trajectory.
//
// Flags: --quick (smaller trip counts, 1 repeat), --repeat=N (keep the
// fastest of N timings), --out=PATH (JSON file to merge into).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "spt.h"

#include <chrono>
#include <cstdio>
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

//===----------------------------------------------------------------------===//
// Kernels. A spread of dispatch behaviours: tight fused arithmetic (the
// superinstruction best case), array traffic, call-heavy control flow
// (frame push/pop dominates), branchy code defeating fusion, and fp math
// through the builtin path.
//===----------------------------------------------------------------------===//

struct Kernel {
  const char *Name;
  const char *Source;
  int64_t N;      ///< Argument at full scale.
  int64_t QuickN; ///< Argument under --quick.
};

const Kernel kKernels[] = {
    {"int_sum",
     "int f(int n) {\n"
     "  int i; int s;\n"
     "  for (i = 0; i < n; i = i + 1) s = s + i * 3 + (i % 7);\n"
     "  return s;\n"
     "}\n",
     6000000, 200000},
    {"array_sweep",
     "int a[4096]; int b[4096];\n"
     "int f(int n) {\n"
     "  int i; int s;\n"
     "  for (i = 0; i < n; i = i + 1) {\n"
     "    int k;\n"
     "    k = i % 4096;\n"
     "    b[k] = a[k] * 3 + i;\n"
     "    s = s + b[k] % 17;\n"
     "  }\n"
     "  return s;\n"
     "}\n",
     3000000, 120000},
    {"call_heavy",
     "int leaf(int x) { return x * 2 + 1; }\n"
     "int twice(int x) { return leaf(x) + leaf(x + 1); }\n"
     "int f(int n) {\n"
     "  int i; int s;\n"
     "  for (i = 0; i < n; i = i + 1) s = s + twice(i % 97);\n"
     "  return s;\n"
     "}\n",
     1200000, 60000},
    {"branchy",
     "int f(int n) {\n"
     "  int i; int s;\n"
     "  for (i = 0; i < n; i = i + 1) {\n"
     "    if (i % 3 == 0) s = s + i;\n"
     "    else { if (i % 5 == 0) s = s - i; else s = s + 2; }\n"
     "  }\n"
     "  return s;\n"
     "}\n",
     3000000, 120000},
    {"fp_chain",
     "fp a[4096];\n"
     "int f(int n) {\n"
     "  int i; fp s;\n"
     "  for (i = 0; i < n; i = i + 1) {\n"
     "    int k; fp v;\n"
     "    k = i % 4096;\n"
     "    v = a[k] * 3.0 + 1.0;\n"
     "    a[k] = v / 7.0 + sqrt(v);\n"
     "    s = s + v;\n"
     "  }\n"
     "  return ftoi(s);\n"
     "}\n",
     1500000, 80000},
};

struct RowResult {
  std::string Name;
  uint64_t Nodes = 0;
  double SecRef = 0.0, SecDec = 0.0;
  uint32_t FusedOps = 0;         ///< Fused pairs in f's decoded image.
  bool ReportsIdentical = false; ///< Full record/arch-state differential.
};

template <typename FnT> double timeBest(int Repeat, FnT Fn) {
  double Best = 0.0;
  for (int R = 0; R != Repeat; ++R) {
    const auto T0 = Clock::now();
    Fn();
    const double S = std::chrono::duration<double>(Clock::now() - T0).count();
    if (R == 0 || S < Best)
      Best = S;
  }
  return Best;
}

/// One engine's observable run: chained record hash + architectural tail.
struct Observed {
  uint64_t StreamHash = 0xcbf29ce484222325ull;
  uint64_t Records = 0;
  bool Done = false;
  int64_t Ret = 0;
  std::string Output;
  uint64_t MemHash = 0;
};

Observed observeRun(const Module &M, const Function *F,
                    const std::vector<Value> &Args, InterpDispatch D) {
  Observed O;
  InterpOptions IO;
  IO.Dispatch = D;
  Interpreter In(M, IO);
  In.startCall(F, Args);
  if (D == InterpDispatch::Reference) {
    while (!In.done()) {
      O.StreamHash = hashStepResult(O.StreamHash, In.step());
      ++O.Records;
    }
  } else {
    auto Sink = makeStepSink([&](const StepResult &R) {
      O.StreamHash = hashStepResult(O.StreamHash, R);
      ++O.Records;
      return true;
    });
    In.runBatch(Sink);
  }
  O.Done = In.done();
  O.Ret = In.returnValue().I;
  O.Output = In.output();
  O.MemHash = In.memoryHash();
  return O;
}

RowResult runKernel(const Kernel &K, bool Quick, int Repeat) {
  RowResult Row;
  Row.Name = K.Name;
  auto M = compileOrDie(K.Source);
  const Function *F = M->findFunction("f");
  const std::vector<Value> Args = {Value::ofInt(Quick ? K.QuickN : K.N)};

  Row.FusedOps = M->decodeCache().imageFor(F)->NumFused;

  // Record-free timing: run() builds no StepResults in decoded mode; the
  // reference engine always materializes one per step, which is exactly
  // the per-step cost the decode pass exists to delete.
  uint64_t NodesRef = 0, NodesDec = 0;
  Row.SecRef = timeBest(Repeat, [&] {
    InterpOptions IO;
    IO.Dispatch = InterpDispatch::Reference;
    Interpreter In(*M, IO);
    In.startCall(F, Args);
    NodesRef = In.run();
  });
  Row.SecDec = timeBest(Repeat, [&] {
    InterpOptions IO;
    IO.Dispatch = InterpDispatch::Decoded;
    Interpreter In(*M, IO);
    In.startCall(F, Args);
    NodesDec = In.run();
  });
  Row.Nodes = NodesDec;

  // Full observational differential, once, with record streams on.
  const Observed Ref = observeRun(*M, F, Args, InterpDispatch::Reference);
  const Observed Dec = observeRun(*M, F, Args, InterpDispatch::Decoded);
  Row.ReportsIdentical =
      NodesRef == NodesDec && Ref.StreamHash == Dec.StreamHash &&
      Ref.Records == Dec.Records && Ref.Done && Dec.Done &&
      Ref.Ret == Dec.Ret && Ref.Output == Dec.Output &&
      Ref.MemHash == Dec.MemHash;
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
  outs() << " perf_interp: interpreter throughput (nodes = retired instrs)\n";
  outs() << " ref = tree-walking switch engine; decoded = pre-decoded\n";
  outs() << " stream, threaded dispatch + fusion; repeat = " << Repeat
         << "\n";
  outs() << "==============================================================\n";

  std::vector<RowResult> Rows;
  for (const Kernel &K : kKernels)
    Rows.push_back(runKernel(K, Quick, Repeat));

  Table T({"kernel", "nodes", "fused", "ref (s)", "decoded (s)",
           "Mnodes/s ref", "Mnodes/s decoded", "speedup", "identical"});
  uint64_t NodesTotal = 0;
  double RefTotal = 0.0, DecTotal = 0.0;
  bool AllIdentical = true;
  for (const RowResult &R : Rows) {
    NodesTotal += R.Nodes;
    RefTotal += R.SecRef;
    DecTotal += R.SecDec;
    AllIdentical = AllIdentical && R.ReportsIdentical;
    T.beginRow();
    T.cell(R.Name);
    T.cell(R.Nodes);
    T.cell(static_cast<uint64_t>(R.FusedOps));
    T.cell(fmt(R.SecRef));
    T.cell(fmt(R.SecDec));
    T.cell(fmt2(R.Nodes / R.SecRef / 1e6));
    T.cell(fmt2(R.Nodes / R.SecDec / 1e6));
    T.cell(fmt2(R.SecRef / R.SecDec));
    T.cell(R.ReportsIdentical ? "yes" : "NO");
  }
  T.print(outs());

  const double Speedup = RefTotal / DecTotal;
  outs() << "\nstress row (aggregate): " << NodesTotal << " nodes, decoded "
         << fmt2(NodesTotal / DecTotal / 1e6) << " Mnodes/s (ref "
         << fmt2(NodesTotal / RefTotal / 1e6) << "), speedup "
         << fmt2(Speedup) << "x, record streams "
         << (AllIdentical ? "byte-identical" : "DIVERGED") << "\n";

  // The gate: byte-identity is non-negotiable, and the decode pass must
  // still pay its rent — at least 2x the reference engine in aggregate.
  const bool FastEnough = Speedup >= 2.0;
  if (!FastEnough)
    errs() << "FAIL: decoded engine only " << fmt2(Speedup)
           << "x the reference engine (gate: >= 2x)\n";

  std::string Block = "{\n    \"rows\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const RowResult &R = Rows[I];
    Block += "      {\"name\": \"" + R.Name + "\"";
    Block += ", \"nodes\": " + std::to_string(R.Nodes);
    Block += ", \"fused_pairs\": " + std::to_string(R.FusedOps);
    Block += ", \"ref_seconds\": " + fmt(R.SecRef);
    Block += ", \"decoded_seconds\": " + fmt(R.SecDec);
    Block += ", \"nodes_per_second_ref\": " + fmt2(R.Nodes / R.SecRef);
    Block +=
        ", \"nodes_per_second_decoded\": " + fmt2(R.Nodes / R.SecDec);
    Block += ", \"speedup\": " + fmt2(R.SecRef / R.SecDec);
    Block += std::string(", \"reports_identical\": ") +
             (R.ReportsIdentical ? "true" : "false") + "}";
    Block += I + 1 != Rows.size() ? ",\n" : "\n";
  }
  Block += "    ],\n";
  Block += "    \"stress\": {";
  Block += "\"nodes\": " + std::to_string(NodesTotal);
  Block += ", \"ref_seconds\": " + fmt(RefTotal);
  Block += ", \"decoded_seconds\": " + fmt(DecTotal);
  Block += ", \"nodes_per_second_ref\": " + fmt2(NodesTotal / RefTotal);
  Block +=
      ", \"nodes_per_second_decoded\": " + fmt2(NodesTotal / DecTotal);
  Block += ", \"speedup\": " + fmt2(Speedup);
  Block += std::string(", \"reports_identical\": ") +
           (AllIdentical ? "true" : "false");
  Block += std::string(", \"meets_2x_gate\": ") +
           (FastEnough ? "true" : "false");
  Block += "}\n  }";

  if (!bench::mergeJsonBlock(OutPath, "interpreter", Block)) {
    errs() << "cannot merge the \"interpreter\" block into " << OutPath << "\n";
    return 1;
  }
  outs() << "merged \"interpreter\" block into " << OutPath << "\n";

  return AllIdentical && FastEnough ? 0 : 1;
}

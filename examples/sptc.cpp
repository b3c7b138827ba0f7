//===- examples/sptc.cpp - File-based SPT compiler driver ---------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The command-line face of the framework: compile an SPTc source file,
// run the cost-driven SPT compilation, and inspect/simulate the result.
//
//   sptc FILE [options]
//     --mode basic|best|anticipated   compilation mode (default best)
//     --entry NAME                    entry function (default main)
//     --report                        print the per-loop selection report
//     --emit-ir                       print the transformed IR
//     --dot                           print hot-loop dependence graphs as
//                                     Graphviz DOT (pipe into `dot -Tsvg`)
//     --simulate                      run sequential + SPT simulations
//     --no-transform                  stop after analysis (pass 1 only
//                                     effects: report uses a scratch copy)
//
// See docs/sptc-language.md for the input language.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/DepGraphDot.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "driver/SptCompiler.h"
#include "ir/IR.h"
#include "ir/IRPrinter.h"
#include "lang/Frontend.h"
#include "sim/SeqSim.h"
#include "sim/SptSim.h"
#include "support/OStream.h"
#include "support/Table.h"
#include "transform/Cleanup.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace spt;

namespace {

bool readFile(const char *Path, std::string &Out) {
  std::FILE *F = std::fopen(Path, "rb");
  if (!F)
    return false;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return true;
}

int usage() {
  errs() << "usage: sptc FILE [--mode basic|best|anticipated] "
            "[--entry NAME]\n            [--report] [--emit-ir] [--dot] "
            "[--simulate]\n";
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  const char *Path = nullptr;
  std::string Entry = "main";
  CompilationMode Mode = CompilationMode::Best;
  bool Report = false, EmitIr = false, Dot = false, Simulate = false;

  for (int A = 1; A < argc; ++A) {
    const char *Arg = argv[A];
    if (std::strcmp(Arg, "--mode") == 0 && A + 1 < argc) {
      const char *Val = argv[++A];
      if (std::strcmp(Val, "basic") == 0)
        Mode = CompilationMode::Basic;
      else if (std::strcmp(Val, "best") == 0)
        Mode = CompilationMode::Best;
      else if (std::strcmp(Val, "anticipated") == 0)
        Mode = CompilationMode::Anticipated;
      else
        return usage();
    } else if (std::strcmp(Arg, "--entry") == 0 && A + 1 < argc) {
      Entry = argv[++A];
    } else if (std::strcmp(Arg, "--report") == 0) {
      Report = true;
    } else if (std::strcmp(Arg, "--emit-ir") == 0) {
      EmitIr = true;
    } else if (std::strcmp(Arg, "--dot") == 0) {
      Dot = true;
    } else if (std::strcmp(Arg, "--simulate") == 0) {
      Simulate = true;
    } else if (Arg[0] == '-') {
      return usage();
    } else if (!Path) {
      Path = Arg;
    } else {
      return usage();
    }
  }
  if (!Path)
    return usage();
  if (!Report && !EmitIr && !Dot && !Simulate)
    Report = Simulate = true; // A useful default.

  std::string Source;
  if (!readFile(Path, Source)) {
    errs() << "sptc: cannot read '" << Path << "'\n";
    return 1;
  }

  CompileResult Front = compileSource(Source);
  if (!Front.ok()) {
    for (const std::string &E : Front.Errors)
      errs() << Path << ":" << E << "\n";
    return 1;
  }
  if (!Front.M->findFunction(Entry)) {
    errs() << "sptc: no function '" << Entry << "'\n";
    return 1;
  }

  auto Base = compileOrDie(Source);
  cleanupModule(*Base);

  SptCompilerOptions Opts;
  Opts.Mode = Mode;
  Opts.ProfileEntry = Entry;
  CompilationReport R = compileSpt(*Front.M, Opts);

  if (Report) {
    outs() << "== selection report (" << compilationModeName(Mode)
           << " mode) ==\n";
    Table T({"function", "loop", "body wt", "trips", "cost", "pre-fork",
             "verdict"});
    for (const LoopRecord &Rec : R.Loops) {
      T.beginRow();
      T.cell(Rec.FuncName);
      T.cell(static_cast<uint64_t>(Rec.Header));
      T.cell(Rec.BodyWeight, 1);
      T.cell(Rec.TripCount, 1);
      T.cell(Rec.Partition.Searched
                 ? formatDouble(Rec.Partition.Cost, 2)
                 : std::string("-"));
      T.cell(Rec.Partition.Searched
                 ? formatDouble(Rec.Partition.PreForkWeight, 1)
                 : std::string("-"));
      T.cell(std::string(rejectReasonName(Rec.Reason)));
    }
    T.print(outs());
    outs() << "\n";
  }

  if (Dot) {
    // Dependence graphs of the selected loops (from the baseline module,
    // which still has the original loop shapes).
    CallEffects Effects = CallEffects::compute(*Base);
    for (size_t FI = 0; FI != Base->numFunctions(); ++FI) {
      const Function *F = Base->function(static_cast<uint32_t>(FI));
      if (F->isExternal() || F->numBlocks() == 0)
        continue;
      CfgInfo Cfg = CfgInfo::compute(*F);
      LoopNest Nest = LoopNest::compute(*F, Cfg);
      CfgProbabilities Probs =
          CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
      FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);
      for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI) {
        LoopDepGraph G = LoopDepGraph::build(*Base, *F, Cfg, *Nest.loop(LI),
                                             Freq, Effects);
        DotOptions DOpts;
        DOpts.Name = F->name() + "_loop" + std::to_string(LI);
        writeDepGraphDot(outs(), *Base, G, DOpts);
      }
    }
  }

  if (EmitIr)
    printModule(outs(), *Front.M);

  if (Simulate) {
    outs() << "== simulation ==\n";
    SeqSimResult Seq = runSequential(*Base, Entry);
    SptSimResult Par = runSpt(*Front.M, Entry, {}, R.SptLoops);
    if (Par.Result.I != Seq.Result.I) {
      errs() << "sptc: CHECKSUM MISMATCH (compiler bug)\n";
      return 1;
    }
    outs() << "result:      " << Seq.Result.I << " (checksums match)\n";
    outs() << "sequential:  " << static_cast<uint64_t>(Seq.cycles())
           << " cycles, IPC " << formatDouble(Seq.ipc(), 2) << "\n";
    outs() << "speculative: " << static_cast<uint64_t>(Par.cycles())
           << " cycles\n";
    outs() << "speedup:     "
           << formatDouble(Seq.cycles() / Par.cycles(), 3) << "x\n";
    for (const auto &[Id, Stats] : Par.PerLoop)
      outs() << "  SPT loop " << Id << ": " << Stats.Forks << " forks, "
             << Stats.Joins << " joins, "
             << formatPercent(Stats.misspecRatio(), 1) << " misspec, "
             << formatPercent(Stats.reexecRatio(), 2) << " re-executed\n";
  }
  return 0;
}

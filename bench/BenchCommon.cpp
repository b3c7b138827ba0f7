//===- bench/BenchCommon.cpp - Shared evaluation harness ---------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "spt.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace spt;
using namespace spt::bench;

namespace {

/// Computes the baseline loop landscape (per-loop cycles, body weights,
/// loop forest) of an untransformed module.
void analyzeBaseline(WorkloadEval &E) {
  for (size_t FI = 0; FI != E.BaseModule->numFunctions(); ++FI) {
    const Function *F = E.BaseModule->function(static_cast<uint32_t>(FI));
    if (F->isExternal() || F->numBlocks() == 0)
      continue;
    CfgInfo Cfg = CfgInfo::compute(*F);
    LoopNest Nest = LoopNest::compute(*F, Cfg);
    CfgProbabilities Probs = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
    FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);

    for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI) {
      const Loop *L = Nest.loop(LI);
      const auto Key = std::make_pair(F->name(), L->Header);

      WorkloadEval::BaseLoopShape Shape;
      Shape.Depth = L->Depth;
      for (BlockId B : L->Blocks) {
        const double IterFreq = Freq.freqPerIteration(*L, B);
        for (const Instr &I : F->block(B)->Instrs)
          Shape.BodyWeight += opClassWeight(opcodeClass(I.Op)) * IterFreq;
      }
      for (const Loop *Child : L->Children)
        Shape.Children.emplace_back(F->name(), Child->Header);
      E.BaseShapes[Key] = std::move(Shape);
      if (L->Depth == 1)
        E.TopLevelLoops.emplace_back(F->name(), L->Header);

      auto It = E.Seq.PerLoop.find({F, L->Id});
      if (It != E.Seq.PerLoop.end())
        E.BaseLoops[Key] = It->second;
    }
  }
}

} // namespace

WorkloadEval
spt::bench::evaluateWorkload(const Workload &W,
                             const std::vector<CompilationMode> &Modes,
                             const EvalOptions &Opts) {
  WorkloadEval E;
  E.Name = W.Name;
  E.BaseModule = std::shared_ptr<Module>(compileWorkload(W).release());
  // The SPT pipeline runs generic cleanups; give the baseline the same
  // treatment so comparisons isolate speculation.
  cleanupModule(*E.BaseModule);
  E.Seq = runSequential(*E.BaseModule, "main", {}, Opts.Machine);
  analyzeBaseline(E);

  for (CompilationMode Mode : Modes) {
    ModeEval ME;
    ME.Mode = Mode;
    ME.M = std::shared_ptr<Module>(compileWorkload(W).release());
    SptCompilerOptions COpts = Opts.Compiler;
    COpts.Mode = Mode;
    ME.Report = compileSpt(*ME.M, COpts);
    ME.Spt = runSpt(*ME.M, "main", {}, ME.Report.SptLoops, Opts.Machine);
    if (ME.Spt.Result.I != E.Seq.Result.I) {
      errs() << "FATAL: checksum mismatch for " << W.Name << " in "
             << compilationModeName(Mode) << " mode\n";
      spt_fatal("SPT compilation changed a workload's result");
    }
    E.Modes.emplace(Mode, std::move(ME));
  }
  return E;
}

std::vector<WorkloadEval>
spt::bench::evaluateAll(const std::vector<CompilationMode> &Modes,
                        const EvalOptions &Opts) {
  std::vector<WorkloadEval> Out;
  for (const Workload &W : allWorkloads()) {
    if (Opts.Verbose)
      outs() << "  evaluating " << W.Name << "...\n";
    Out.push_back(evaluateWorkload(W, Modes, Opts));
  }
  return Out;
}

double spt::bench::selectedLoopCoverage(const WorkloadEval &E,
                                        CompilationMode Mode) {
  auto It = E.Modes.find(Mode);
  if (It == E.Modes.end() || E.Seq.Subticks == 0)
    return 0.0;
  uint64_t Covered = 0;
  for (const LoopRecord &Rec : It->second.Report.Loops) {
    if (!Rec.Selected)
      continue;
    auto Found = E.BaseLoops.find({Rec.FuncName, Rec.Header});
    if (Found != E.BaseLoops.end())
      Covered += Found->second.Subticks;
  }
  const double Cov =
      static_cast<double>(Covered) / static_cast<double>(E.Seq.Subticks);
  return std::min(Cov, 1.0);
}

double spt::bench::maxLoopCoverage(const WorkloadEval &E,
                                   double MaxBodyWeight) {
  if (E.Seq.Subticks == 0)
    return 0.0;
  uint64_t Covered = 0;
  // Walk each loop forest outermost-first; count the outermost loop whose
  // body fits the limit, else recurse into its children.
  std::vector<std::pair<std::string, BlockId>> Work = E.TopLevelLoops;
  while (!Work.empty()) {
    auto Key = Work.back();
    Work.pop_back();
    auto ShapeIt = E.BaseShapes.find(Key);
    if (ShapeIt == E.BaseShapes.end())
      continue;
    if (ShapeIt->second.BodyWeight <= MaxBodyWeight) {
      auto LoopIt = E.BaseLoops.find(Key);
      if (LoopIt != E.BaseLoops.end())
        Covered += LoopIt->second.Subticks;
      continue;
    }
    for (const auto &Child : ShapeIt->second.Children)
      Work.push_back(Child);
  }
  const double Cov =
      static_cast<double>(Covered) / static_cast<double>(E.Seq.Subticks);
  return std::min(Cov, 1.0);
}

namespace {

constexpr const char *JsonSpace = " \t\r\n";

/// Index just past the JSON value starting at \p I: a string, an object
/// or array with everything nested in it, or a bare scalar (whose end is
/// the next ',', '}' or ']' outside any nesting). npos when the text ends
/// first.
size_t skipJsonValue(const std::string &S, size_t I) {
  int Depth = 0;
  bool InString = false;
  for (; I < S.size(); ++I) {
    const char C = S[I];
    if (InString) {
      if (C == '\\') {
        ++I;
      } else if (C == '"') {
        InString = false;
        if (Depth == 0)
          return I + 1;
      }
      continue;
    }
    if (C == '"') {
      InString = true;
    } else if (C == '{' || C == '[') {
      ++Depth;
    } else if (C == '}' || C == ']') {
      if (Depth == 0)
        return I;
      if (--Depth == 0)
        return I + 1;
    } else if (C == ',' && Depth == 0) {
      return I;
    }
  }
  return std::string::npos;
}

/// Sets member \p Key of the JSON object in \p Text (see mergeJsonBlock).
bool setTopLevelMember(std::string &Text, const std::string &Key,
                       const std::string &Value) {
  const size_t npos = std::string::npos;
  const std::string Member = "\"" + Key + "\": " + Value;
  size_t I = Text.find_first_not_of(JsonSpace);
  if (I == npos) {
    Text = "{\n  " + Member + "\n}\n";
    return true;
  }
  if (Text[I] != '{')
    return false;
  size_t LastEnd = npos; // End of the last member's value.
  for (++I;; I = LastEnd) {
    I = Text.find_first_not_of(JsonSpace, I);
    if (I != npos && LastEnd != npos && Text[I] == ',')
      I = Text.find_first_not_of(JsonSpace, I + 1);
    if (I == npos)
      return false;
    if (Text[I] == '}')
      break;
    if (Text[I] != '"')
      return false;
    const size_t NameEnd = skipJsonValue(Text, I);
    const size_t Colon = Text.find_first_not_of(JsonSpace, NameEnd);
    if (Colon == npos || Text[Colon] != ':')
      return false;
    const size_t Begin = Text.find_first_not_of(JsonSpace, Colon + 1);
    size_t End = skipJsonValue(Text, Begin);
    if (End == npos)
      return false;
    while (End > Begin && std::strchr(JsonSpace, Text[End - 1]) &&
           Text[End - 1] != '\0')
      --End;
    if (Text.compare(I + 1, NameEnd - I - 2, Key) == 0) {
      Text.replace(Begin, End - Begin, Value);
      return true;
    }
    LastEnd = End;
  }
  if (LastEnd == npos)
    Text.insert(I, "\n  " + Member + "\n"); // Empty object.
  else
    Text.insert(LastEnd, ",\n  " + Member);
  return true;
}

} // namespace

bool spt::bench::mergeJsonBlock(const std::string &Path,
                                const std::string &Key,
                                const std::string &Value) {
  std::string Text;
  {
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    Text = SS.str();
  }
  if (!setTopLevelMember(Text, Key, Value))
    return false;
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return static_cast<bool>(Out);
}

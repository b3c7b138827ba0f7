//===- tests/robustness_test.cpp - Graceful degradation of the driver --------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The driver's failure paths: a profiling run that cannot complete must
// degrade the compilation to Basic-mode semantics with a diagnostic —
// never crash — and the degraded module must still verify and preserve
// program semantics; partition budget exhaustion must be recorded, not
// silent.
//
//===----------------------------------------------------------------------===//

#include "driver/SptCompiler.h"

#include "interp/Interp.h"
#include "ir/Verifier.h"
#include "lang/Frontend.h"
#include "profile/Profiler.h"

#include <gtest/gtest.h>

using namespace spt;

namespace {

const char *HotLoopSrc =
    "fp a[2048]; fp b[2048]; int out[4];\n"
    "void setup() {\n"
    "  int i;\n"
    "  for (i = 0; i < 2048; i = i + 1) a[i] = itof(i % 97) / 9.7;\n"
    "}\n"
    "int main() {\n"
    "  int i; int r; fp s;\n"
    "  setup();\n"
    "  for (r = 0; r < 6; r = r + 1) {\n"
    "    for (i = 0; i < 2048; i = i + 1) {\n"
    "      fp v;\n"
    "      v = a[i] * 3.0 + 1.0;\n"
    "      v = v / 7.0 + sqrt(v) * 1.25;\n"
    "      v = v * v + sqrt(v + 2.0);\n"
    "      b[i] = v;\n"
    "      s = s + v;\n"
    "    }\n"
    "  }\n"
    "  out[0] = ftoi(s);\n"
    "  return out[0];\n"
    "}\n";

/// The degraded-path postcondition: compilation completed, flagged the
/// degradation with a warning diagnostic, fell back to Basic semantics,
/// and left a verifying, semantics-preserving module behind.
void expectGracefulDegradation(Module &M, const CompilationReport &Report,
                               const RunOutcome &Want) {
  EXPECT_TRUE(Report.Degraded);
  EXPECT_EQ(Report.EffectiveMode, CompilationMode::Basic);
  EXPECT_EQ(Report.Mode, CompilationMode::Best);
  ASSERT_FALSE(Report.Diags.empty());
  EXPECT_GE(Report.Diags.countAtLeast(DiagSeverity::Warning), 1u);
  EXPECT_EQ(verifyModule(M), "");
  RunOutcome Got = runFunction(M, "main");
  EXPECT_EQ(Got.Result.I, Want.Result.I);
  EXPECT_EQ(Got.Output, Want.Output);
}

} // namespace

TEST(RobustnessTest, MissingEntryFunctionDegradesInsteadOfCrashing) {
  auto Base = compileOrDie(HotLoopSrc);
  RunOutcome Want = runFunction(*Base, "main");

  auto M = compileOrDie(HotLoopSrc);
  SptCompilerOptions Opts;
  Opts.Mode = CompilationMode::Best;
  Opts.ProfileEntry = "no_such_function";
  CompilationReport Report = compileSpt(*M, Opts);
  expectGracefulDegradation(*M, Report, Want);
}

TEST(RobustnessTest, ProfileRunReportsMissingFunctionGracefully) {
  auto M = compileOrDie("int main() { return 1; }");
  ProfileBundle B = profileRun(*M, "does_not_exist");
  EXPECT_FALSE(B.Completed);
  EXPECT_NE(B.Error.find("no such function"), std::string::npos);
}

TEST(RobustnessTest, ProfileBudgetExhaustionReportsGracefully) {
  auto M = compileOrDie(HotLoopSrc);
  ProfilerOptions POpts;
  POpts.MaxSteps = 100; // Far below what the program needs.
  ProfileBundle B = profileRun(*M, "main", {}, POpts);
  EXPECT_FALSE(B.Completed);
  EXPECT_NE(B.Error.find("budget"), std::string::npos);
}

TEST(RobustnessTest, DegradedReportStillDrivesTheSimulator) {
  // Even a degraded compilation's report must be usable end-to-end.
  auto M = compileOrDie(HotLoopSrc);
  SptCompilerOptions Opts;
  Opts.Mode = CompilationMode::Best;
  Opts.ProfileEntry = "no_such_function";
  CompilationReport Report = compileSpt(*M, Opts);
  ASSERT_TRUE(Report.Degraded);
  // With no coverage data every loop is NeverExecuted; nothing selected.
  for (const LoopRecord &Rec : Report.Loops)
    EXPECT_FALSE(Rec.Selected);
  EXPECT_TRUE(Report.SptLoops.empty());
}

TEST(RobustnessTest, PartitionDeadlineSurfacesInFailureDetail) {
  // An (effectively) zero wall-clock budget exhausts every nontrivial
  // search at its first deadline check; the truncation must be recorded
  // on the loop record and in the diagnostics, not silently dropped.
  auto M = compileOrDie(HotLoopSrc);
  SptCompilerOptions Opts;
  Opts.Mode = CompilationMode::Best;
  Opts.MaxPartitionSeconds = 1e-12;
  CompilationReport Report = compileSpt(*M, Opts);

  bool SawExhaustion = false;
  for (const LoopRecord &Rec : Report.Loops)
    if (Rec.Partition.BudgetExhausted) {
      SawExhaustion = true;
      EXPECT_NE(Rec.FailureDetail.find("budget exhausted"),
                std::string::npos)
          << Rec.FuncName << ":" << Rec.Header;
    }
  EXPECT_TRUE(SawExhaustion);
  EXPECT_GE(Report.Diags.countAtLeast(DiagSeverity::Warning), 1u);
  EXPECT_EQ(verifyModule(*M), "");
}

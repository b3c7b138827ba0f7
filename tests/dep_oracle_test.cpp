//===- tests/dep_oracle_test.cpp - Dependence-oracle ensemble --------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The DepOracle API (analysis/oracle/DepOracle.h) and the measured
// dependence-profile artifacts feeding it (profile/DepProfiler.h):
// combiner determinism and floor semantics, registry routing, artifact
// round-trip with corrupted-checksum rejection, drift measurement, the
// no-artifact byte-identity guarantee, and the measured member actually
// changing edge probabilities the cost model sees.
//
//===----------------------------------------------------------------------===//

#include "analysis/oracle/DepOracle.h"

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "driver/SptCompiler.h"
#include "lang/Frontend.h"
#include "profile/DepProfiler.h"

#include <gtest/gtest.h>

using namespace spt;

namespace {

/// One loop whose only may-alias pair never conflicts at run time: every
/// iteration reads and writes a[i], so the static type-based analysis
/// prices a loop-carried flow edge, but no iteration ever observes
/// another's store.
const char *SelfIndexSrc =
    "int a[128];\n"
    "int main() {\n"
    "  int i; int s;\n"
    "  s = 0;\n"
    "  for (i = 0; i < 128; i = i + 1) { a[i] = i * 3; }\n"
    "  for (i = 0; i < 128; i = i + 1) {\n"
    "    a[i] = a[i] + 7;\n"
    "    s = s + a[i];\n"
    "  }\n"
    "  return s;\n"
    "}\n";

/// Conflict density controlled by the entry argument: mask=0 makes every
/// iteration read the previous iteration's store (dense cross-iteration
/// conflicts); mask=255 makes the recurrence arm never execute within the
/// trip range (no conflicts). The input-distribution shift behind the
/// drift scenario.
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

DepProfileArtifact artifactFor(const Module &M, int64_t Mask) {
  DepProfilerOptions O;
  O.Entry = "work";
  O.Args = {Value::ofInt(Mask)};
  O.Workload = "masked";
  StatusOr<DepProfileArtifact> A = profileDependenceArtifact(M, O);
  EXPECT_TRUE(A.isOk()) << A.message();
  return A.isOk() ? A.value() : DepProfileArtifact{};
}

//===----------------------------------------------------------------------===//
// Combiner semantics.
//===----------------------------------------------------------------------===//

TEST(DepOracleCombinerTest, PriorityOrderAndDeterminism) {
  auto Ensemble =
      DepOracleRegistry::instance().create("ensemble", DepOracleConfig{});
  ASSERT_NE(Ensemble, nullptr);

  // Memory query without an in-run profile: the profiled member
  // abstains, the static member answers with the frequency ratio.
  DepQuery Q;
  Q.Channel = DepChannel::Memory;
  Q.Src = 1;
  Q.Dst = 2;
  Q.Cross = true;
  Q.SrcIterFreq = 1.0;
  Q.DstIterFreq = 0.5;
  std::optional<DepEstimate> E = Ensemble->dependence(Q);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(std::string(E->Source), "static");
  EXPECT_DOUBLE_EQ(E->Prob, 0.5);
  EXPECT_DOUBLE_EQ(E->Confidence, StaticOracleConfidence);

  // Deterministic: the identical query answers bit-identically.
  std::optional<DepEstimate> E2 = Ensemble->dependence(Q);
  ASSERT_TRUE(E2.has_value());
  EXPECT_EQ(E->Prob, E2->Prob);
  EXPECT_EQ(E->Confidence, E2->Confidence);
  EXPECT_STREQ(E->Source, E2->Source);

  // With an in-run profile the profiled member outranks static and its
  // measured frequency (25 cross hits / 50 writer execs) wins.
  LoopDepProfileData Prof;
  Prof.Iterations = 100;
  Prof.Activations = 1;
  Prof.StmtExec[1] = 50;
  Prof.Pairs[{1, 2}] = MemDepCounts{10, 25, 0};
  Q.Profile = &Prof;
  E = Ensemble->dependence(Q);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(std::string(E->Source), "profile");
  EXPECT_DOUBLE_EQ(E->Prob, 0.5);
  EXPECT_DOUBLE_EQ(E->Confidence, 1.0);

  // A profiled zero is an answer (writer observed, pair silent), not a
  // fall-through to static.
  Q.Src = 1;
  Q.Dst = 3;
  E = Ensemble->dependence(Q);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(std::string(E->Source), "profile");
  EXPECT_DOUBLE_EQ(E->Prob, 0.0);

  // Register/control channels never consult the profile.
  Q.Channel = DepChannel::Register;
  E = Ensemble->dependence(Q);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(std::string(E->Source), "static");
}

TEST(DepOracleCombinerTest, ConfidenceFloorFallsThroughToSpeculation) {
  DepOracleConfig C;
  C.ConfidenceFloor = 0.5; // Above static (0.25) and fallback (0.1).
  auto Ensemble = DepOracleRegistry::instance().create("ensemble", C);
  ASSERT_NE(Ensemble, nullptr);

  DepQuery Q;
  Q.Channel = DepChannel::Memory;
  Q.Cross = true;
  Q.SrcIterFreq = 1.0;
  Q.DstIterFreq = 1.0;
  // No member clears the floor; the last answering member (the
  // speculation fallback) wins.
  std::optional<DepEstimate> E = Ensemble->dependence(Q);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(std::string(E->Source), "fallback");
  EXPECT_DOUBLE_EQ(E->Prob, FallbackCrossProb);
  Q.Cross = false;
  E = Ensemble->dependence(Q);
  ASSERT_TRUE(E.has_value());
  EXPECT_DOUBLE_EQ(E->Prob, 1.0);

  // A confident in-run profile still clears a 0.5 floor.
  LoopDepProfileData Prof;
  Prof.Iterations = 64;
  Prof.StmtExec[1] = 10;
  Q.Src = 1;
  Q.Dst = 2;
  Q.Profile = &Prof;
  E = Ensemble->dependence(Q);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(std::string(E->Source), "profile");
}

TEST(DepOracleCombinerTest, BranchProbabilitiesRouteThroughMembers) {
  CompileResult CR = compileSource(SelfIndexSrc);
  ASSERT_TRUE(CR.ok());
  const Function *F = CR.M->findFunction("main");
  ASSERT_NE(F, nullptr);
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);

  BranchProbQuery Q;
  Q.F = F;
  Q.Cfg = &Cfg;
  Q.Nest = &Nest;
  std::optional<BranchProbEstimate> E =
      defaultDepOracle().branchProbabilities(Q);
  ASSERT_TRUE(E.has_value());
  EXPECT_FALSE(E->Measured);
  EXPECT_EQ(std::string(E->Source), "static");

  // Shape-mismatched counts must be declined by the profiled member, not
  // half-consumed.
  FunctionEdgeCounts Bad;
  Bad.Block.assign(F->numBlocks() + 3, 7);
  Q.Counts = &Bad;
  E = defaultDepOracle().branchProbabilities(Q);
  ASSERT_TRUE(E.has_value());
  EXPECT_FALSE(E->Measured);

  // Valid, executed counts flip the answer to measured.
  FunctionEdgeCounts Good;
  Good.resizeFor(*F);
  for (auto &B : Good.Block)
    B = 1;
  Q.Counts = &Good;
  E = defaultDepOracle().branchProbabilities(Q);
  ASSERT_TRUE(E.has_value());
  EXPECT_TRUE(E->Measured);
  EXPECT_EQ(std::string(E->Source), "profile");

  // The pure-fallback oracle has no branch member at all.
  auto Fallback =
      DepOracleRegistry::instance().create("fallback", DepOracleConfig{});
  ASSERT_NE(Fallback, nullptr);
  EXPECT_FALSE(Fallback->branchProbabilities(Q).has_value());
}

//===----------------------------------------------------------------------===//
// Registry.
//===----------------------------------------------------------------------===//

TEST(DepOracleRegistryTest, BuiltinsCustomsAndUnknowns) {
  auto &Reg = DepOracleRegistry::instance();
  std::vector<std::string> Names = Reg.names();
  for (const char *Builtin :
       {"ensemble", "static", "profile", "fallback", "measured"})
    EXPECT_NE(std::find(Names.begin(), Names.end(), Builtin), Names.end())
        << Builtin;

  EXPECT_EQ(Reg.create("no-such-oracle", DepOracleConfig{}), nullptr);

  // Custom registration is first-come-first-served.
  auto Factory = [](const DepOracleConfig &C) {
    return std::make_shared<DepOracleEnsemble>(
        "custom-test",
        std::vector<std::shared_ptr<const DepOracle>>{
            std::make_shared<StaticDepOracle>()},
        C.ConfidenceFloor);
  };
  EXPECT_TRUE(Reg.add("custom-test-oracle", Factory));
  EXPECT_FALSE(Reg.add("custom-test-oracle", Factory));
  auto Custom = Reg.create("custom-test-oracle", DepOracleConfig{});
  ASSERT_NE(Custom, nullptr);
  EXPECT_EQ(std::string(Custom->name()), "custom-test");
}

//===----------------------------------------------------------------------===//
// Artifacts: round-trip, corruption, drift.
//===----------------------------------------------------------------------===//

TEST(DepProfileArtifactTest, RoundTripAndCorruptionRejection) {
  CompileResult CR = compileSource(MaskedRecurrenceSrc);
  ASSERT_TRUE(CR.ok());
  DepProfileArtifact A = artifactFor(*CR.M, 0);
  ASSERT_FALSE(A.Loops.empty());
  EXPECT_EQ(A.ModuleHash, moduleReprintHash(*CR.M));
  EXPECT_EQ(A.Workload, "masked");

  const std::string Text = serializeDepProfile(A);
  StatusOr<DepProfileArtifact> RT = parseDepProfile(Text);
  ASSERT_TRUE(RT.isOk()) << RT.message();
  EXPECT_EQ(serializeDepProfile(RT.value()), Text);
  EXPECT_EQ(RT.value().Checksum, A.Checksum);
  EXPECT_EQ(depProfileDrift(A, RT.value()), 0.0);

  // Any flipped payload byte fails verification.
  for (const char *Needle : {"module ", "loop ", "pair "}) {
    std::string Corrupt = Text;
    const size_t At = Corrupt.find(Needle);
    ASSERT_NE(At, std::string::npos) << Needle;
    const size_t Digit = At + std::string(Needle).size();
    Corrupt[Digit] = Corrupt[Digit] == '9' ? '0' : '9';
    StatusOr<DepProfileArtifact> Bad = parseDepProfile(Corrupt);
    EXPECT_FALSE(Bad.isOk()) << Needle;
  }
  // Truncation and trailing garbage are structural errors.
  EXPECT_FALSE(parseDepProfile(Text.substr(0, Text.size() / 2)).isOk());
  EXPECT_FALSE(parseDepProfile(Text + "extra 1\n").isOk());
  EXPECT_FALSE(parseDepProfile("").isOk());
}

TEST(DepProfileArtifactTest, DriftSeparatesInputDistributions) {
  CompileResult CR = compileSource(MaskedRecurrenceSrc);
  ASSERT_TRUE(CR.ok());
  DepProfileArtifact Dense = artifactFor(*CR.M, 0);
  DepProfileArtifact Dense2 = artifactFor(*CR.M, 0);
  DepProfileArtifact Sparse = artifactFor(*CR.M, 255);

  // Same input distribution: no drift. Shifted distribution: the
  // recurrence pair's cross rate moves from ~1 to 0, which must clear
  // any reasonable threshold.
  EXPECT_EQ(depProfileDrift(Dense, Dense2), 0.0);
  const double D = depProfileDrift(Dense, Sparse);
  EXPECT_GT(D, DepProfileDriftThreshold);
  EXPECT_LE(D, 1.0);
  EXPECT_DOUBLE_EQ(depProfileDrift(Sparse, Dense), D) << "drift is symmetric";
}

//===----------------------------------------------------------------------===//
// The measured member changes what the cost model sees.
//===----------------------------------------------------------------------===//

TEST(MeasuredOracleTest, ErasesNeverObservedCrossDependences) {
  CompileResult CR = compileSource(SelfIndexSrc);
  ASSERT_TRUE(CR.ok());
  DepProfilerOptions DPO;
  StatusOr<DepProfileArtifact> A = profileDependenceArtifact(*CR.M, DPO);
  ASSERT_TRUE(A.isOk()) << A.message();
  auto Artifact = std::make_shared<DepProfileArtifact>(A.value());

  DepOracleConfig C;
  C.Measured = makeMeasuredDepOracle(Artifact);
  ASSERT_NE(C.Measured, nullptr);
  auto Measured = DepOracleRegistry::instance().create("ensemble", C);
  ASSERT_NE(Measured, nullptr);

  const Function *F = CR.M->findFunction("main");
  ASSERT_NE(F, nullptr);
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  CfgProbabilities Probs = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
  FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);
  CallEffects Effects = CallEffects::compute(*CR.M);

  bool SawErasure = false;
  for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI) {
    const Loop &L = *Nest.loop(LI);
    DepGraphOptions Static;
    LoopDepGraph GS =
        LoopDepGraph::build(*CR.M, *F, Cfg, L, Freq, Effects, Static);
    DepGraphOptions WithMeasured;
    WithMeasured.Oracle = Measured.get();
    LoopDepGraph GM = LoopDepGraph::build(*CR.M, *F, Cfg, L, Freq, Effects,
                                          WithMeasured);
    // The static graph prices cross-iteration memory flow on the
    // self-indexed update; the measured one knows it never fires.
    double StaticCross = 0.0, MeasuredCross = 0.0;
    for (const DepEdge &E : GS.edges())
      if (E.Kind == DepKind::FlowMem && E.Cross)
        StaticCross += E.Prob;
    for (const DepEdge &E : GM.edges())
      if (E.Kind == DepKind::FlowMem && E.Cross)
        MeasuredCross += E.Prob;
    if (StaticCross > 0.0 && MeasuredCross == 0.0)
      SawErasure = true;
    EXPECT_LE(MeasuredCross, StaticCross);
  }
  EXPECT_TRUE(SawErasure)
      << "expected at least one loop whose measured cross-dependence mass "
         "drops to zero";
}

//===----------------------------------------------------------------------===//
// Driver integration: byte-identity without artifacts, graceful
// degradation on bad inputs.
//===----------------------------------------------------------------------===//

std::string renderFor(const std::string &Src, const SptCompilerOptions &O) {
  CompileResult CR = compileSource(Src);
  EXPECT_TRUE(CR.ok());
  CompilationReport R = compileSpt(*CR.M, O);
  return renderReportDeterministic(R);
}

TEST(DriverOracleTest, NoArtifactReportsAreOracleInvariant) {
  // With no artifact, the default options and an explicitly selected
  // ensemble must render the same report — the guarantee that
  // introducing the oracle layer changed nothing for existing callers.
  for (CompilationMode Mode :
       {CompilationMode::Basic, CompilationMode::Best}) {
    SptCompilerOptions Default;
    Default.Mode = Mode;
    const std::string Want = renderFor(MaskedRecurrenceSrc, Default);
    EXPECT_EQ(renderFor(MaskedRecurrenceSrc,
                        Default.withDependenceOracle("ensemble")),
              Want);
  }
}

TEST(DriverOracleTest, StaticOnlyMatchesEnsembleWithoutProfiles) {
  // When no dependence profile exists (DepProfile == nullptr, no edge
  // counts), the pure-static oracle and the full ensemble produce the
  // same graph edge for edge — the "static-only fallback" guarantee.
  CompileResult CR = compileSource(MaskedRecurrenceSrc);
  ASSERT_TRUE(CR.ok());
  const Function *F = CR.M->findFunction("work");
  ASSERT_NE(F, nullptr);
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  ASSERT_GT(Nest.numLoops(), 0u);
  CfgProbabilities Probs = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
  FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);
  CallEffects Effects = CallEffects::compute(*CR.M);

  auto Static =
      DepOracleRegistry::instance().create("static", DepOracleConfig{});
  ASSERT_NE(Static, nullptr);
  for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI) {
    const Loop &L = *Nest.loop(LI);
    LoopDepGraph GE = LoopDepGraph::build(*CR.M, *F, Cfg, L, Freq, Effects,
                                          DepGraphOptions());
    DepGraphOptions SO;
    SO.Oracle = Static.get();
    LoopDepGraph GS =
        LoopDepGraph::build(*CR.M, *F, Cfg, L, Freq, Effects, SO);
    ASSERT_EQ(GE.edges().size(), GS.edges().size());
    for (size_t I = 0; I != GE.edges().size(); ++I) {
      const DepEdge &A = GE.edges()[I];
      const DepEdge &B = GS.edges()[I];
      EXPECT_EQ(A.Kind, B.Kind);
      EXPECT_EQ(A.Cross, B.Cross);
      EXPECT_DOUBLE_EQ(A.Prob, B.Prob);
    }
  }

  // Branch probabilities with no counts: both answer the static
  // heuristic, so analytic frequencies agree block for block.
  BranchProbQuery Q;
  Q.F = F;
  Q.Cfg = &Cfg;
  Q.Nest = &Nest;
  std::optional<BranchProbEstimate> FromEnsemble =
      defaultDepOracle().branchProbabilities(Q);
  std::optional<BranchProbEstimate> FromStatic =
      Static->branchProbabilities(Q);
  ASSERT_TRUE(FromEnsemble.has_value());
  ASSERT_TRUE(FromStatic.has_value());
  EXPECT_FALSE(FromEnsemble->Measured);
  EXPECT_FALSE(FromStatic->Measured);
  FreqInfo FE = FreqInfo::compute(*F, Cfg, Nest, FromEnsemble->Probs);
  FreqInfo FS = FreqInfo::compute(*F, Cfg, Nest, FromStatic->Probs);
  for (BlockId B = 0; B != BlockId(F->numBlocks()); ++B)
    EXPECT_DOUBLE_EQ(FE.blockFreq(B), FS.blockFreq(B));
}

TEST(DriverOracleTest, UnknownOracleDegradesWithDiagnostic) {
  CompileResult CR = compileSource(MaskedRecurrenceSrc);
  ASSERT_TRUE(CR.ok());
  SptCompilerOptions O;
  O.Mode = CompilationMode::Best;
  O = O.withDependenceOracle("definitely-not-registered");
  CompilationReport R = compileSpt(*CR.M, O);
  bool Saw = false;
  for (const Diagnostic &D : R.Diags.all())
    Saw |= D.Detail.find("unknown dependence oracle") != std::string::npos;
  EXPECT_TRUE(Saw);

  // Apart from the diagnostic, the report matches the default ensemble.
  CompileResult CR2 = compileSource(MaskedRecurrenceSrc);
  ASSERT_TRUE(CR2.ok());
  CompilationReport Want = compileSpt(*CR2.M, SptCompilerOptions());
  const std::string A = renderReportDeterministic(R);
  const std::string B = renderReportDeterministic(Want);
  EXPECT_EQ(A.substr(0, A.find("diagnostics:")),
            B.substr(0, B.find("diagnostics:")));
}

TEST(DriverOracleTest, ForeignArtifactIsIgnoredWithDiagnostic) {
  CompileResult Donor = compileSource(SelfIndexSrc);
  ASSERT_TRUE(Donor.ok());
  DepProfilerOptions DPO;
  StatusOr<DepProfileArtifact> A = profileDependenceArtifact(*Donor.M, DPO);
  ASSERT_TRUE(A.isOk()) << A.message();
  auto Artifact = std::make_shared<DepProfileArtifact>(A.value());

  // Compile a *different* program with the donor's artifact: the module
  // handshake fails, the measurements are ignored, and the report (minus
  // the diagnostic) is byte-identical to a no-artifact compile.
  CompileResult CR = compileSource(MaskedRecurrenceSrc);
  ASSERT_TRUE(CR.ok());
  SptCompilerOptions O;
  O.Mode = CompilationMode::Best;
  O = O.withProfileArtifact(Artifact, "donor.sptprof");
  CompilationReport R = compileSpt(*CR.M, O);
  bool Saw = false;
  for (const Diagnostic &D : R.Diags.all())
    Saw |= D.Detail.find("different module") != std::string::npos;
  EXPECT_TRUE(Saw);

  CompileResult CR2 = compileSource(MaskedRecurrenceSrc);
  ASSERT_TRUE(CR2.ok());
  CompilationReport Want = compileSpt(*CR2.M, SptCompilerOptions());
  const std::string Got = renderReportDeterministic(R);
  const std::string Ref = renderReportDeterministic(Want);
  EXPECT_EQ(Got.substr(0, Got.find("diagnostics:")),
            Ref.substr(0, Ref.find("diagnostics:")));
}

TEST(DriverOracleTest, UnrolledLoopsRouteAwayFromMeasuredArtifact) {
  // Both loops are light enough that the driver unrolls them before
  // partitioning, minting clone statements the pre-unroll artifact never
  // observed. The measured member must not answer for those clones with
  // vacuous zeros (which would green-light speculating the dense
  // recurrence); the driver routes unrolled loops to the artifact-free
  // twin ensemble, so the compile is byte-identical to the in-run
  // default.
  const char *Src =
      "int a[512];\n"
      "int main() {\n"
      "  int i; int s;\n"
      "  s = 0;\n"
      "  a[0] = 1;\n"
      "  for (i = 1; i < 512; i = i + 1) { a[i] = a[i - 1] + i; }\n"
      "  for (i = 0; i < 512; i = i + 1) { s = s + a[i]; }\n"
      "  return s;\n"
      "}\n";
  CompileResult Donor = compileSource(Src);
  ASSERT_TRUE(Donor.ok());
  StatusOr<DepProfileArtifact> A =
      profileDependenceArtifact(*Donor.M, DepProfilerOptions());
  ASSERT_TRUE(A.isOk()) << A.message();
  auto Artifact = std::make_shared<DepProfileArtifact>(A.value());

  SptCompilerOptions Default;
  Default.Mode = CompilationMode::Best;
  const std::string Want = renderFor(Src, Default);
  // The guard only means something if unrolling actually fired.
  EXPECT_NE(Want.find("unroll="), std::string::npos);
  EXPECT_EQ(Want.find(" unroll=1 "), std::string::npos);
  EXPECT_EQ(renderFor(Src, Default.withProfileArtifact(Artifact, "pre-unroll")),
            Want);
}

} // namespace

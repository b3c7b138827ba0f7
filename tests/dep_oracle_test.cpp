//===- tests/dep_oracle_test.cpp - Measured dependence profiles -----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Where edge probabilities come from (DepGraphOptions) and the measured
// dependence-profile artifacts that feed them (profile/DepProfiler.h):
// memory edges priced measured > in-run > heuristic, the measured record
// abstaining on statements it never saw execute, block frequencies from
// edge counts versus the static heuristic, artifact round-trip with
// corrupted-checksum, long-name, repeated-record and signed or
// out-of-range count handling, drift measurement, and the driver ignoring
// foreign artifacts and unrolled loops' records.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "driver/SptCompiler.h"
#include "lang/Frontend.h"
#include "profile/DepProfiler.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

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

/// The static analyses of one function, and the graph of its loop
/// \p LoopIdx under \p Opts.
struct Analyzed {
  CompileResult CR;
  const Function *F = nullptr;
  CfgInfo Cfg;
  LoopNest Nest;
  FreqInfo Freq;
  CallEffects Effects;

  Analyzed(const char *Src, const char *Func)
      : CR(compileSource(Src)), F(CR.M->findFunction(Func)),
        Cfg(CfgInfo::compute(*F)), Nest(LoopNest::compute(*F, Cfg)),
        Freq(blockFrequencies(*F, Cfg, Nest, nullptr).Freq),
        Effects(CallEffects::compute(*CR.M)) {}

  LoopDepGraph graph(uint32_t LoopIdx, const DepGraphOptions &Opts) const {
    return LoopDepGraph::build(*CR.M, *F, Cfg, *Nest.loop(LoopIdx), Freq,
                               Effects, Opts);
  }
};

/// Probability of the \p Cross FlowMem edge W -> R, or -1 when the graph
/// has no such edge.
double memProb(const LoopDepGraph &G, StmtId W, StmtId R, bool Cross) {
  for (const DepEdge &E : G.edges())
    if (E.Kind == DepKind::FlowMem && E.Cross == Cross &&
        G.stmt(E.Src).Id == W && G.stmt(E.Dst).Id == R)
      return E.Prob;
  return -1.0;
}

/// Every edge that is not a memory flow, as (src, dst, kind, cross, prob).
std::vector<std::tuple<uint32_t, uint32_t, DepKind, bool, double>>
otherEdges(const LoopDepGraph &G) {
  std::vector<std::tuple<uint32_t, uint32_t, DepKind, bool, double>> Out;
  for (const DepEdge &E : G.edges())
    if (E.Kind != DepKind::FlowMem)
      Out.emplace_back(E.Src, E.Dst, E.Kind, E.Cross, E.Prob);
  return Out;
}

/// The store and the load after it in SelfIndexSrc's second loop
/// (a[i] = a[i] + 7; s = s + a[i];).
struct StoreLoad {
  StmtId W = NoStmt, R = NoStmt;
};
StoreLoad storeThenLoad(const LoopDepGraph &G) {
  StoreLoad P;
  for (const LoopStmt &S : G.stmts()) {
    if (S.I->Op == Opcode::Store)
      P.W = S.Id;
    else if (S.I->Op == Opcode::Load && P.W != NoStmt)
      P.R = S.Id;
  }
  return P;
}

/// Index of SelfIndexSrc's second loop, the one that loads.
uint32_t readingLoop(const Analyzed &A) {
  for (uint32_t I = 0; I != A.Nest.numLoops(); ++I)
    if (storeThenLoad(A.graph(I, DepGraphOptions())).R != NoStmt)
      return I;
  return ~0u;
}

//===----------------------------------------------------------------------===//
// Edge pricing.
//===----------------------------------------------------------------------===//

TEST(EdgePricingTest, MemoryEdgesTakeMeasuredThenInRunThenHeuristic) {
  Analyzed A(SelfIndexSrc, "main");
  const uint32_t Loop = readingLoop(A);
  ASSERT_NE(Loop, ~0u);
  const LoopDepGraph Static = A.graph(Loop, DepGraphOptions());
  const StoreLoad P = storeThenLoad(Static);

  // No profile: the frequency-ratio heuristic (both run once per
  // iteration).
  EXPECT_DOUBLE_EQ(memProb(Static, P.W, P.R, /*Cross=*/true), 1.0);
  EXPECT_DOUBLE_EQ(memProb(Static, P.W, P.R, /*Cross=*/false), 1.0);

  // The in-run profile outranks the heuristic: 25 cross and 10 intra
  // hits per 50 writer executions.
  LoopDepProfileData InRun;
  InRun.Iterations = 51;
  InRun.StmtExec[P.W] = 50;
  InRun.StmtExec[P.R] = 50;
  InRun.Pairs[{P.W, P.R}] = MemDepCounts{10, 25, 0};
  DepGraphOptions Opts;
  Opts.DepProfile = &InRun;
  const LoopDepGraph FromInRun = A.graph(Loop, Opts);
  EXPECT_DOUBLE_EQ(memProb(FromInRun, P.W, P.R, true), 0.5);
  EXPECT_DOUBLE_EQ(memProb(FromInRun, P.W, P.R, false), 0.2);

  // The measured record outranks the in-run profile.
  LoopDepProfileData Measured;
  Measured.Iterations = 41;
  Measured.StmtExec[P.W] = 40;
  Measured.StmtExec[P.R] = 40;
  Measured.Pairs[{P.W, P.R}] = MemDepCounts{40, 10, 0};
  Opts.Measured = &Measured;
  const LoopDepGraph FromMeasured = A.graph(Loop, Opts);
  EXPECT_DOUBLE_EQ(memProb(FromMeasured, P.W, P.R, true), 0.25);
  EXPECT_DOUBLE_EQ(memProb(FromMeasured, P.W, P.R, false), 1.0);
  // Also with no in-run profile at all.
  Opts.DepProfile = nullptr;
  EXPECT_DOUBLE_EQ(memProb(A.graph(Loop, Opts), P.W, P.R, true), 0.25);

  // A profiled zero is an answer, not a fall-through: an in-run profile
  // that never saw the writer run erases the cross edge.
  LoopDepProfileData Silent;
  DepGraphOptions SilentOpts;
  SilentOpts.DepProfile = &Silent;
  const LoopDepGraph FromSilent = A.graph(Loop, SilentOpts);
  EXPECT_EQ(memProb(FromSilent, P.W, P.R, true), -1.0);
  EXPECT_DOUBLE_EQ(memProb(FromSilent, P.W, P.R, false), 0.0);

  // Register and control edges always take the heuristic.
  const auto Want = otherEdges(Static);
  EXPECT_FALSE(Want.empty());
  for (const LoopDepGraph *G : {&FromInRun, &FromMeasured, &FromSilent})
    EXPECT_EQ(otherEdges(*G), Want);
}

TEST(EdgePricingTest, MeasuredRecordAbstainsOnUnobservedStatements) {
  Analyzed A(SelfIndexSrc, "main");
  const uint32_t Loop = readingLoop(A);
  ASSERT_NE(Loop, ~0u);
  const StoreLoad P = storeThenLoad(A.graph(Loop, DepGraphOptions()));

  LoopDepProfileData InRun;
  InRun.StmtExec[P.W] = 50;
  InRun.Pairs[{P.W, P.R}] = MemDepCounts{0, 25, 0};

  // A record that watched only the writer, or only the reader, says
  // nothing about the pair: the in-run profile answers, or without one
  // the heuristic.
  for (bool WriterSeen : {true, false}) {
    LoopDepProfileData Measured;
    Measured.Iterations = 100;
    Measured.StmtExec[WriterSeen ? P.W : P.R] = 99;
    DepGraphOptions Opts;
    Opts.Measured = &Measured;
    Opts.DepProfile = &InRun;
    EXPECT_DOUBLE_EQ(memProb(A.graph(Loop, Opts), P.W, P.R, true), 0.5)
        << WriterSeen;
    Opts.DepProfile = nullptr;
    EXPECT_DOUBLE_EQ(memProb(A.graph(Loop, Opts), P.W, P.R, true), 1.0)
        << WriterSeen;
  }

  // Once it watched both, its silence is a measured zero.
  LoopDepProfileData Measured;
  Measured.StmtExec[P.W] = 99;
  Measured.StmtExec[P.R] = 99;
  DepGraphOptions Opts;
  Opts.Measured = &Measured;
  Opts.DepProfile = &InRun;
  EXPECT_EQ(memProb(A.graph(Loop, Opts), P.W, P.R, true), -1.0);
}

TEST(EdgePricingTest, BlockFrequenciesFromCountsOrStaticHeuristic) {
  CompileResult CR = compileSource(SelfIndexSrc);
  ASSERT_TRUE(CR.ok());
  const Function *F = CR.M->findFunction("main");
  ASSERT_NE(F, nullptr);
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  const FreqInfo Static = FreqInfo::compute(
      *F, Cfg, Nest, CfgProbabilities::staticHeuristic(*F, Cfg, Nest));
  auto expectStatic = [&](const FunctionEdgeCounts *Counts) {
    const BlockFrequencies BF = blockFrequencies(*F, Cfg, Nest, Counts);
    EXPECT_FALSE(BF.Measured);
    for (BlockId B = 0; B != BlockId(F->numBlocks()); ++B)
      EXPECT_EQ(BF.Freq.blockFreq(B), Static.blockFreq(B)) << B;
  };

  // No counts, counts of another shape, and counts that never reached
  // the function all fall back to the static heuristic.
  expectStatic(nullptr);
  FunctionEdgeCounts Bad;
  Bad.Block.assign(F->numBlocks() + 3, 7);
  expectStatic(&Bad);
  FunctionEdgeCounts Cold;
  Cold.resizeFor(*F);
  expectStatic(&Cold);

  // Matching, executed counts are the frequencies.
  FunctionEdgeCounts Good;
  Good.resizeFor(*F);
  for (size_t B = 0; B != Good.Block.size(); ++B)
    Good.Block[B] = 3 + B;
  const BlockFrequencies BF = blockFrequencies(*F, Cfg, Nest, &Good);
  EXPECT_TRUE(BF.Measured);
  for (BlockId B = 0; B != BlockId(F->numBlocks()); ++B)
    EXPECT_EQ(BF.Freq.blockFreq(B), static_cast<double>(3 + B));
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

/// A program whose function \p Name runs one loop of 59 iterations (60
/// header visits), called from main.
std::string longNameSrc(const std::string &Name) {
  return "int a[64];\n"
         "int " + Name + "() {\n"
         "  int i;\n"
         "  for (i = 0; i < 59; i = i + 1) { a[i] = i; }\n"
         "  return a[3];\n"
         "}\n"
         "int main() { return " + Name + "(); }\n";
}

TEST(DepProfileArtifactTest, FunctionNamesOfAnyLengthRoundTrip) {
  // 300 characters, and 256 ending in a digit: a name cut at 255
  // characters would leave the digit to be read as the header.
  for (const std::string &Name :
       {std::string(300, 'f'), std::string(255, 'f') + "1"}) {
    CompileResult CR = compileSource(longNameSrc(Name));
    ASSERT_TRUE(CR.ok());
    StatusOr<DepProfileArtifact> A =
        profileDependenceArtifact(*CR.M, DepProfilerOptions());
    ASSERT_TRUE(A.isOk()) << Name.size() << ": " << A.message();
    const DepArtifactLoop *L = nullptr;
    for (const DepArtifactLoop &Each : A.value().Loops)
      if (Each.Func == Name)
        L = &Each;
    ASSERT_NE(L, nullptr) << Name.size();
    EXPECT_EQ(L->Profile.Activations, 1u);
    EXPECT_EQ(L->Profile.Iterations, 60u);
    const std::string Text = serializeDepProfile(A.value());
    StatusOr<DepProfileArtifact> RT = parseDepProfile(Text);
    ASSERT_TRUE(RT.isOk()) << RT.message();
    EXPECT_EQ(serializeDepProfile(RT.value()), Text);
  }
}

TEST(DepProfileArtifactTest, RepeatedLoopRecordIsRejected) {
  CompileResult CR = compileSource(MaskedRecurrenceSrc);
  ASSERT_TRUE(CR.ok());
  DepProfileArtifact A = artifactFor(*CR.M, 0);
  ASSERT_FALSE(A.Loops.empty());
  ASSERT_TRUE(parseDepProfile(serializeDepProfile(A)).isOk());

  // A second record for the same (function, header), under a valid
  // checksum: the loops are unique keys, so the parse must refuse rather
  // than let one record shadow the other.
  DepArtifactLoop Twin = A.Loops.front();
  Twin.Profile.Iterations += 1;
  A.Loops.insert(A.Loops.begin() + 1, Twin);
  StatusOr<DepProfileArtifact> Bad = parseDepProfile(serializeDepProfile(A));
  ASSERT_FALSE(Bad.isOk());
  EXPECT_NE(Bad.message().find("repeated loop record"), std::string::npos)
      << Bad.message();
}

/// \p Text with field \p Field (0 is the record key) of its first \p Key
/// record spelled \p Spelling, resealed under a valid checksum for
/// \p ModuleHash.
std::string respelled(const std::string &Text, uint64_t ModuleHash,
                      const std::string &Key, unsigned Field,
                      const std::string &Spelling) {
  size_t At = Text.find("\n" + Key + " ");
  EXPECT_NE(At, std::string::npos) << Key;
  if (At == std::string::npos)
    return Text;
  ++At;
  for (unsigned I = 0; I != Field; ++I)
    At = Text.find(' ', At) + 1;
  const size_t End = Text.find_first_of(" \n", At);
  std::string Payload = Text.substr(0, Text.find("checksum "));
  Payload.replace(At, End - At, Spelling);
  char Sum[24];
  std::snprintf(Sum, sizeof(Sum), "%016" PRIx64,
                fnv1a(Payload) ^ ModuleHash);
  return Payload + "checksum " + Sum + "\n";
}

TEST(DepProfileArtifactTest, SignedAndOutOfRangeCountsAreRejected) {
  CompileResult CR = compileSource(MaskedRecurrenceSrc);
  ASSERT_TRUE(CR.ok());
  const DepProfileArtifact A = artifactFor(*CR.M, 0);
  const std::string Text = serializeDepProfile(A);
  ASSERT_NE(Text.find("\npair "), std::string::npos);

  // Resealing a plain count keeps the artifact valid, so each rejection
  // below is the spelling's, not the checksum's. A count of 2^64-1 would
  // price its writer's memory edges at about 0.
  struct FieldAt {
    const char *Key;
    unsigned Field;
  };
  for (const FieldAt &F : {FieldAt{"steps", 1}, FieldAt{"loop", 3},
                           FieldAt{"exec", 2}, FieldAt{"pair", 4}}) {
    EXPECT_TRUE(
        parseDepProfile(respelled(Text, A.ModuleHash, F.Key, F.Field, "7"))
            .isOk())
        << F.Key;
    for (const char *Spelling : {"-1", "18446744073709551616", "+7"})
      EXPECT_FALSE(parseDepProfile(respelled(Text, A.ModuleHash, F.Key,
                                             F.Field, Spelling))
                       .isOk())
          << F.Key << " " << Spelling;
  }
}

//===----------------------------------------------------------------------===//
// A measured artifact changes what the cost model sees.
//===----------------------------------------------------------------------===//

TEST(MeasuredOracleTest, ErasesNeverObservedCrossDependences) {
  Analyzed A(SelfIndexSrc, "main");
  StatusOr<DepProfileArtifact> Art =
      profileDependenceArtifact(*A.CR.M, DepProfilerOptions());
  ASSERT_TRUE(Art.isOk()) << Art.message();

  bool SawErasure = false;
  for (uint32_t LI = 0; LI != A.Nest.numLoops(); ++LI) {
    const Loop &L = *A.Nest.loop(LI);
    const LoopDepGraph GS = A.graph(LI, DepGraphOptions());
    DepGraphOptions WithMeasured;
    for (const DepArtifactLoop &AL : Art.value().Loops)
      if (AL.Func == "main" && AL.Header == L.Header)
        WithMeasured.Measured = &AL.Profile;
    ASSERT_NE(WithMeasured.Measured, nullptr) << L.Header;
    const LoopDepGraph GM = A.graph(LI, WithMeasured);
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
// Driver integration: artifacts that do not apply are ignored.
//===----------------------------------------------------------------------===//

std::string renderFor(const std::string &Src, const SptCompilerOptions &O) {
  CompileResult CR = compileSource(Src);
  EXPECT_TRUE(CR.ok());
  CompilationReport R = compileSpt(*CR.M, O);
  return renderReportDeterministic(R);
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
  // observed. The artifact must not answer for those clones with vacuous
  // zeros (which would green-light speculating the dense recurrence);
  // unrolled loops ignore the artifact, so the compile is byte-identical
  // to the in-run default.
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

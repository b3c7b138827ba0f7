//===- tests/serve_test.cpp - Batch compilation service robustness ---------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Deterministic unit tests for the serve/ robustness envelope: cooperative
// cancellation (CancelToken through compileSpt and mid-PartitionSearch),
// per-attempt deadline expiry, the Best -> Basic -> skip degradation
// ladder, quarantine after N strikes, admission-control rejection, and
// checksum-verified cache corruption detection.
//
//===----------------------------------------------------------------------===//

#include "serve/BatchCompileServer.h"

#include "NestingPrograms.h"

#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "cost/CostModel.h"
#include "lang/Frontend.h"
#include "lang/ProgramGenerator.h"
#include "partition/Partition.h"
#include "profile/DepProfiler.h"
#include "profile/Profiler.h"
#include "serve/CompileCache.h"
#include "support/CancelToken.h"

#include <gtest/gtest.h>

using namespace spt;

namespace {

const char *LoopSrc =
    "fp a[256]; fp b[256];\n"
    "int main() {\n"
    "  int i; fp s;\n"
    "  for (i = 0; i < 256; i = i + 1) a[i] = itof(i % 13) * 0.5;\n"
    "  for (i = 0; i < 256; i = i + 1) {\n"
    "    fp v;\n"
    "    v = a[i] * 3.0 + 1.0;\n"
    "    b[i] = v + sqrt(v);\n"
    "    s = s + v;\n"
    "  }\n"
    "  return ftoi(s);\n"
    "}\n";

/// A small deterministic program for server-level tests.
std::string genProgram(uint64_t Seed) {
  GeneratorOptions GO;
  GO.MinLoops = 2;
  GO.MaxLoops = 3;
  GO.MaxStmtsPerBody = 5;
  GO.MaxTrip = 100;
  return generateProgram(Seed, GO);
}

ServeOptions baseOptions() {
  ServeOptions SO;
  SO.Workers = 1;
  SO.Compiler.ProfileMaxSteps = 2000000;
  return SO;
}

/// Runs one batch through a fresh server built from \p SO.
ServeBatchReport serveBatch(const ServeOptions &SO,
                            const std::vector<ServeRequest> &Batch) {
  BatchCompileServer Server(SO);
  Server.start();
  for (const ServeRequest &R : Batch)
    Server.submitOrWait(R);
  return Server.drain();
}

} // namespace

//===----------------------------------------------------------------------===//
// CancelToken
//===----------------------------------------------------------------------===//

TEST(CancelTokenTest, ExplicitCancelIsSticky) {
  CancelToken Tok;
  EXPECT_FALSE(Tok.cancelled());
  EXPECT_FALSE(isCancelled(&Tok));
  EXPECT_FALSE(isCancelled(nullptr)); // Null token never cancels.
  Tok.cancel();
  EXPECT_TRUE(Tok.cancelled());
  Tok.clearDeadline(); // Clearing the deadline must not un-cancel.
  EXPECT_TRUE(Tok.cancelled());
  EXPECT_EQ(Tok.remainingSeconds(), 0.0);
}

TEST(CancelTokenTest, DeadlineArmsAndLatches) {
  CancelToken Far;
  Far.armDeadlineAfter(3600.0);
  EXPECT_FALSE(Far.cancelled());
  EXPECT_GT(Far.remainingSeconds(), 1.0);

  CancelToken Now;
  Now.armDeadlineAfter(0.0); // Non-positive budget cancels immediately.
  EXPECT_TRUE(Now.cancelled());

  CancelToken Tiny;
  Tiny.armDeadlineAfter(1e-9);
  while (!Tiny.cancelled()) {
  }
  EXPECT_TRUE(Tiny.cancelled()); // Latched: stays cancelled.
  Tiny.clearDeadline();
  EXPECT_TRUE(Tiny.cancelled());
}

//===----------------------------------------------------------------------===//
// Cancellation through the compiler
//===----------------------------------------------------------------------===//

TEST(ServeCancelTest, PreCancelledTokenShortCircuitsCompileSpt) {
  auto M = compileOrDie(LoopSrc);
  CancelToken Tok;
  Tok.cancel();
  SptCompilerOptions Opts;
  Opts.Cancel = &Tok;
  CompilationReport Report = compileSpt(*M, Opts);
  EXPECT_TRUE(Report.Cancelled);
  // Every stage was skipped: nothing was profiled or transformed.
  EXPECT_EQ(Report.Loops.size(), 0u);
}

TEST(ServeCancelTest, ExpiredDeadlineCancelsCompileSpt) {
  auto M = compileOrDie(LoopSrc);
  CancelToken Tok;
  Tok.armDeadlineAfter(1e-12); // Expires before the first stage boundary.
  SptCompilerOptions Opts = SptCompilerOptions().withCancel(&Tok);
  CompilationReport Report = compileSpt(*M, Opts);
  EXPECT_TRUE(Report.Cancelled);
}

TEST(ServeCancelTest, UncancelledTokenDoesNotPerturbTheReport) {
  auto Plain = compileOrDie(LoopSrc);
  CompilationReport Want = compileSpt(*Plain, SptCompilerOptions());

  auto M = compileOrDie(LoopSrc);
  CancelToken Tok; // Never cancelled, no deadline.
  CompilationReport Got =
      compileSpt(*M, SptCompilerOptions().withCancel(&Tok));
  EXPECT_FALSE(Got.Cancelled);
  EXPECT_EQ(renderReportDeterministic(Got), renderReportDeterministic(Want));
}

TEST(ServeCancelTest, DeadlineFiresMidBatchInTheProfiler) {
  // The profiler drives the interpreter's batched decoded engine and polls
  // its token every 16384 retired instructions. A deadline that expires
  // while the batch is in flight must stop the run at a poll boundary —
  // partial bundle, explanatory error — not run the batch to completion.
  auto M = compileOrDie("int main() { int i; int j; int s;\n"
                        "  for (i = 0; i < 100000; i = i + 1) {\n"
                        "    for (j = 0; j < 1000; j = j + 1) {\n"
                        "      s = s + i * j;\n"
                        "    }\n"
                        "  }\n"
                        "  return s; }\n");
  CancelToken Tok;
  ProfilerOptions PO;
  PO.Cancel = &Tok;
  Tok.armDeadlineAfter(0.02); // Expires a few million steps in.
  ProfileBundle B = profileRun(*M, "main", {}, PO);
  EXPECT_FALSE(B.Completed);
  EXPECT_NE(B.Error.find("cancelled after"), std::string::npos) << B.Error;
  // Mid-batch, not pre-run: some instructions retired, and the stop landed
  // exactly on the documented poll stride.
  EXPECT_GT(B.Instrs, 0u);
  EXPECT_EQ(B.Instrs % 16384u, 0u) << B.Instrs;
}

TEST(ServeCancelTest, PartitionSearchHonorsCancelMidSearch) {
  auto M = compileOrDie(LoopSrc);
  const Function *F = M->findFunction("main");
  ASSERT_NE(F, nullptr);
  CfgInfo Cfg = CfgInfo::compute(*F);
  LoopNest Nest = LoopNest::compute(*F, Cfg);
  auto Probs = CfgProbabilities::staticHeuristic(*F, Cfg, Nest);
  FreqInfo Freq = FreqInfo::compute(*F, Cfg, Nest, Probs);
  CallEffects Effects = CallEffects::compute(*M);

  for (uint32_t LI = 0; LI != Nest.numLoops(); ++LI) {
    LoopDepGraph G = LoopDepGraph::build(*M, *F, Cfg, *Nest.loop(LI), Freq,
                                         Effects);
    if (G.violationCandidates().empty())
      continue;
    MisspecCostModel Model(G);

    PartitionResult Free = PartitionSearch(G, Model).run();
    ASSERT_TRUE(Free.Searched);
    EXPECT_FALSE(Free.BudgetExhausted);

    // A pre-cancelled shared token stops the search at its very first
    // budget poll, exactly like an exhausted wall-clock budget.
    CancelToken Tok;
    Tok.cancel();
    PartitionOptions PO;
    PO.Cancel = &Tok;
    PartitionResult Stopped = PartitionSearch(G, Model, PO).run();
    EXPECT_TRUE(Stopped.Searched);
    EXPECT_TRUE(Stopped.BudgetExhausted);
    EXPECT_LE(Stopped.NodesVisited, Free.NodesVisited);
    return;
  }
  FAIL() << "no loop with violation candidates in LoopSrc";
}

//===----------------------------------------------------------------------===//
// Server: deadline expiry and the degradation ladder
//===----------------------------------------------------------------------===//

TEST(ServeLadderTest, UnmeetableDeadlineBurnsBothRungsThenSkips) {
  ServeOptions SO = baseOptions();
  SO.AttemptDeadlineSeconds = 1e-9;
  SO.CacheCapacity = 0;
  ServeBatchReport R = serveBatch(SO, {{1, "slow", genProgram(3)}});
  ASSERT_EQ(R.Outcomes.size(), 1u);
  const ServeOutcome &O = R.Outcomes[0];
  EXPECT_EQ(O.State, ServeState::Skipped);
  EXPECT_EQ(O.Attempts, 2u); // Best rung, then the Basic rung.
  EXPECT_NE(O.Error.message().find("deadline"), std::string::npos)
      << O.Error.message();
  EXPECT_EQ(R.Retried, 1u);
}

TEST(ServeLadderTest, FaultFreeBatchCompletesOnTheFirstRung) {
  ServeBatchReport R = serveBatch(baseOptions(), {{1, "ok", genProgram(4)}});
  ASSERT_EQ(R.Outcomes.size(), 1u);
  EXPECT_EQ(R.Outcomes[0].State, ServeState::Completed);
  EXPECT_EQ(R.Outcomes[0].Attempts, 1u);
  EXPECT_FALSE(R.Outcomes[0].Report.empty());
}

TEST(ServeLadderTest, FirstRungFaultDegradesToBasic) {
  // Chaos decisions are a pure function of (seed, content hash, attempt),
  // so scan seeds for one where the first attempt faults and the retry
  // does not: that request must resolve Degraded via the Basic rung.
  const std::string Src = genProgram(5);
  for (uint64_t Seed = 0; Seed != 64; ++Seed) {
    ServeOptions SO = baseOptions();
    SO.ChaosFaultRate = 0.5;
    SO.ChaosSeed = Seed;
    SO.CacheCapacity = 0;
    ServeBatchReport R = serveBatch(SO, {{1, "flaky", Src}});
    if (R.Outcomes.size() != 1 ||
        R.Outcomes[0].State != ServeState::Degraded)
      continue;
    const ServeOutcome &O = R.Outcomes[0];
    EXPECT_TRUE(O.Faulted);
    EXPECT_EQ(O.Attempts, 2u);
    EXPECT_EQ(O.EffectiveMode, CompilationMode::Basic);
    EXPECT_FALSE(O.Report.empty());
    EXPECT_EQ(R.Degraded, 1u);
    return;
  }
  FAIL() << "no chaos seed in [0,64) produced a fault-then-success ladder";
}

TEST(ServeLadderTest, AllRungsFaultingSkipsStructurally) {
  ServeOptions SO = baseOptions();
  SO.ChaosFaultRate = 1.0; // Every attempt faults: the ladder runs dry.
  SO.CacheCapacity = 0;
  ServeBatchReport R = serveBatch(SO, {{1, "poison", genProgram(6)}});
  ASSERT_EQ(R.Outcomes.size(), 1u);
  const ServeOutcome &O = R.Outcomes[0];
  EXPECT_EQ(O.State, ServeState::Skipped);
  EXPECT_EQ(O.Attempts, 2u);
  EXPECT_TRUE(O.Faulted);
  EXPECT_NE(O.Error.message().find("chaos"), std::string::npos);
}

TEST(ServeLadderTest, ParseFailureSkipsWithoutBurningRungs) {
  ServeBatchReport R =
      serveBatch(baseOptions(), {{1, "hostile", "int main( { return }"}});
  ASSERT_EQ(R.Outcomes.size(), 1u);
  EXPECT_EQ(R.Outcomes[0].State, ServeState::Skipped);
  EXPECT_EQ(R.Outcomes[0].Attempts, 0u);
  EXPECT_NE(R.Outcomes[0].Error.message().find("frontend"),
            std::string::npos);
}

TEST(ServeLadderTest, HostileNestingSkipsInTheFrontEnd) {
  // Each of these used to overflow a worker's stack in the parser, the
  // reprint or the AST teardown and take the whole process down.
  using nesting_programs::repeat;
  const size_t N = 100000;
  const std::vector<ServeRequest> Batch = {
      {1, "parens",
       "int main() { return " + repeat("(", N) + "1" + repeat(")", N) +
           "; }"},
      {2, "unary", "int main() { return " + repeat("- ", N) + "1; }"},
      {3, "chain", "int main() { return 1" + repeat("+1", N) + "; }"},
      {4, "blocks",
       "int main() { " + repeat("{", N) + repeat("}", N) + " return 0; }"},
  };
  ServeBatchReport R = serveBatch(baseOptions(), Batch);
  ASSERT_EQ(R.Outcomes.size(), Batch.size());
  for (const ServeOutcome &O : R.Outcomes) {
    EXPECT_EQ(O.State, ServeState::Skipped) << O.Name;
    EXPECT_EQ(O.Attempts, 0u) << O.Name;
    EXPECT_EQ(O.Error.message().rfind("frontend: ", 0), 0u)
        << O.Name << ": " << O.Error.message();
    EXPECT_NE(O.Error.message().find("nested"), std::string::npos)
        << O.Name << ": " << O.Error.message();
  }
}

TEST(ServeLadderTest, ProgramsAtTheNestingLimitsCompile) {
  std::vector<ServeRequest> Batch;
  for (const nesting_programs::NamedProgram &NP :
       nesting_programs::nestingPrograms(0))
    Batch.push_back({Batch.size() + 1, NP.Name, NP.Source});
  ServeBatchReport R = serveBatch(baseOptions(), Batch);
  ASSERT_EQ(R.Outcomes.size(), Batch.size());
  for (const ServeOutcome &O : R.Outcomes) {
    EXPECT_EQ(O.State, ServeState::Completed)
        << O.Name << ": " << O.Error.message();
    EXPECT_FALSE(O.Report.empty()) << O.Name;
  }
}

//===----------------------------------------------------------------------===//
// Server: quarantine and admission control
//===----------------------------------------------------------------------===//

TEST(ServeQuarantineTest, PoisonProgramIsRefusedAfterStrikeLimit) {
  ServeOptions SO = baseOptions();
  SO.ChaosFaultRate = 1.0;
  SO.StrikeLimit = 2;
  SO.CacheCapacity = 0;
  const std::string Src = genProgram(7);
  BatchCompileServer Server(SO);

  // First request: both rungs fault -> 2 strikes, at the limit.
  Server.start();
  Server.submitOrWait({1, "poison", Src});
  ServeBatchReport First = Server.drain();
  ASSERT_EQ(First.Outcomes.size(), 1u);
  EXPECT_EQ(First.Outcomes[0].State, ServeState::Skipped);
  EXPECT_EQ(First.Quarantined, 0u);

  // The ledger survives drain(): the same content hash is now refused
  // before any worker time is spent on it.
  Server.start();
  Server.submitOrWait({2, "poison-again", Src});
  ServeBatchReport Second = Server.drain();
  ASSERT_EQ(Second.Outcomes.size(), 1u);
  EXPECT_EQ(Second.Outcomes[0].State, ServeState::Quarantined);
  EXPECT_EQ(Second.Outcomes[0].Attempts, 0u);
  EXPECT_NE(Second.Outcomes[0].Error.message().find("quarantined"),
            std::string::npos);
  EXPECT_EQ(Second.Quarantined, 1u);
}

TEST(ServeQuarantineTest, HealthyProgramsAreNotQuarantined) {
  ServeOptions SO = baseOptions();
  SO.StrikeLimit = 1;
  const std::string Src = genProgram(8);
  BatchCompileServer Server(SO);
  for (uint64_t Id = 1; Id <= 3; ++Id) {
    Server.start();
    Server.submitOrWait({Id, "ok", Src});
    ServeBatchReport R = Server.drain();
    ASSERT_EQ(R.Outcomes.size(), 1u);
    EXPECT_EQ(R.Outcomes[0].State, ServeState::Completed);
  }
}

TEST(ServeBackpressureTest, SubmitRefusesPastMaxQueue) {
  ServeOptions SO = baseOptions();
  SO.MaxQueue = 2;
  const std::string Src = genProgram(9);
  BatchCompileServer Server(SO);
  // Deliberately not started: the queue fills deterministically.
  EXPECT_TRUE(Server.submit({1, "a", Src}).isOk());
  EXPECT_TRUE(Server.submit({2, "b", Src}).isOk());
  Status Third = Server.submit({3, "c", Src});
  EXPECT_FALSE(Third.isOk());
  EXPECT_NE(Third.message().find("ServerOverloaded"), std::string::npos)
      << Third.message();

  // The two admitted requests still complete once workers exist.
  Server.start();
  ServeBatchReport R = Server.drain();
  EXPECT_EQ(R.Outcomes.size(), 2u);
  EXPECT_EQ(R.Accepted, 2u);
  EXPECT_EQ(R.RejectedOverload, 1u);
}

//===----------------------------------------------------------------------===//
// Compile cache
//===----------------------------------------------------------------------===//

TEST(CompileCacheTest, HitMissAndLruEviction) {
  CompileCache Cache(2);
  std::string Out;
  EXPECT_FALSE(Cache.lookup(1, Out));
  Cache.insert(1, "one");
  Cache.insert(2, "two");
  EXPECT_TRUE(Cache.lookup(1, Out)); // Touch: 1 becomes MRU.
  EXPECT_EQ(Out, "one");
  Cache.insert(3, "three"); // Evicts 2, the LRU entry, not 1.
  EXPECT_FALSE(Cache.lookup(2, Out));
  EXPECT_TRUE(Cache.lookup(1, Out));
  EXPECT_TRUE(Cache.lookup(3, Out));
  CompileCacheStats S = Cache.stats();
  EXPECT_EQ(S.Insertions, 3u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Corrupt, 0u);
}

TEST(CompileCacheTest, CorruptedEntryIsDetectedCountedAndNeverServed) {
  CompileCache Cache(4);
  Cache.insert(42, "deterministic report payload");
  ASSERT_TRUE(Cache.corruptOneEntry());
  std::string Out;
  EXPECT_FALSE(Cache.lookup(42, Out)); // Checksum mismatch -> miss.
  CompileCacheStats S = Cache.stats();
  EXPECT_EQ(S.Corrupt, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(Cache.size(), 0u); // The corrupt entry was dropped.

  // A reinsert heals the key.
  Cache.insert(42, "deterministic report payload");
  EXPECT_TRUE(Cache.lookup(42, Out));
  EXPECT_EQ(Out, "deterministic report payload");
}

TEST(CompileCacheTest, ZeroCapacityDisablesCaching) {
  CompileCache Cache(0);
  Cache.insert(1, "x");
  std::string Out;
  EXPECT_FALSE(Cache.lookup(1, Out));
  EXPECT_EQ(Cache.size(), 0u);
}

TEST(ServeCacheTest, CorruptionIsDetectedEndToEndWithObsCounter) {
  ObsContext Obs;
  ServeOptions SO = baseOptions();
  SO.Obs = &Obs;
  const std::string Src = genProgram(10);
  BatchCompileServer Server(SO);

  Server.start();
  Server.submitOrWait({1, "seed", Src});
  ServeBatchReport First = Server.drain();
  ASSERT_EQ(First.Outcomes.size(), 1u);
  const std::string Gold = First.Outcomes[0].Report;
  ASSERT_FALSE(Gold.empty());

  ASSERT_TRUE(Server.corruptOneCacheEntry());
  Server.start();
  Server.submitOrWait({2, "probe", Src});
  ServeBatchReport Second = Server.drain();
  ASSERT_EQ(Second.Outcomes.size(), 1u);
  const ServeOutcome &O = Second.Outcomes[0];
  EXPECT_FALSE(O.CacheHit); // Corrupt entry treated as a miss...
  EXPECT_EQ(O.Report, Gold); // ...and recompilation matches byte-for-byte.
  EXPECT_EQ(Server.cacheStats().Corrupt, 1u);

  StatsSnapshot Snap = Obs.snapshot();
  EXPECT_EQ(Snap.Counters["serve.cache.corrupt"], 1u);
  EXPECT_EQ(Snap.Counters["serve.cache.hit"], 0u);
}

TEST(ServeCacheTest, DuplicateRequestIsServedFromCacheByteIdentically) {
  const std::string Src = genProgram(11);
  ServeBatchReport R =
      serveBatch(baseOptions(), {{1, "first", Src}, {2, "dup", Src}});
  ASSERT_EQ(R.Outcomes.size(), 2u);
  EXPECT_FALSE(R.Outcomes[0].CacheHit);
  EXPECT_TRUE(R.Outcomes[1].CacheHit);
  EXPECT_EQ(R.Outcomes[0].Report, R.Outcomes[1].Report);
  EXPECT_EQ(R.Cache.Hits, 1u);
}

TEST(ServeCacheTest, MachineWidthIsPartOfTheCacheKey) {
  // Reports compiled for different machine widths differ (k-way chains,
  // gain estimates), so Cores must be folded into the options
  // fingerprint: a 2-core entry must never satisfy a 4-core request.
  EXPECT_NE(
      compilerOptionsFingerprint(SptCompilerOptions().withCores(2)),
      compilerOptionsFingerprint(SptCompilerOptions().withCores(4)));
  EXPECT_EQ(compilerOptionsFingerprint(SptCompilerOptions().withCores(2)),
            compilerOptionsFingerprint(SptCompilerOptions()));

  // End to end: the same source served under each width produces
  // distinct reports, and only the wide one renders the core count.
  const std::string Src = genProgram(11);
  ServeBatchReport Narrow = serveBatch(baseOptions(), {{1, "narrow", Src}});
  ServeOptions SO = baseOptions();
  SO.Compiler = SO.Compiler.withCores(4);
  ServeBatchReport Wide = serveBatch(SO, {{1, "wide", Src}});
  ASSERT_EQ(Narrow.Outcomes.size(), 1u);
  ASSERT_EQ(Wide.Outcomes.size(), 1u);
  EXPECT_NE(Narrow.Outcomes[0].Report, Wide.Outcomes[0].Report);
  EXPECT_NE(Wide.Outcomes[0].Report.find("cores=4"), std::string::npos);
  EXPECT_EQ(Narrow.Outcomes[0].Report.find("cores="), std::string::npos);
}

TEST(ServeCacheTest, ReportNeutralSettingsShareTheKey) {
  // Cancellation, tracing and the artifact's provenance path cannot
  // change a report (the determinism contract), so requests differing
  // only in them must share cache entries.
  const SptCompilerOptions Plain;
  const uint64_t Key = compilerOptionsFingerprint(Plain);
  CancelToken Tok;
  EXPECT_EQ(compilerOptionsFingerprint(Plain.withCancel(&Tok)), Key);
  ObsContext Obs;
  EXPECT_EQ(compilerOptionsFingerprint(Plain.withTracing(&Obs)), Key);
  EXPECT_EQ(compilerOptionsFingerprint(Plain.withTracing()), Key);
  SptCompilerOptions WithPath = Plain;
  WithPath.Analysis.ProfilePath = "elsewhere.sptprof";
  EXPECT_EQ(compilerOptionsFingerprint(WithPath), Key);
}

TEST(ServeCacheTest, ProfileArtifactIsPartOfTheCacheKey) {
  // A report compiled against one measured dependence-profile artifact
  // must never be served for a request carrying a different artifact (or
  // none): the measured probabilities steer the partition search, so a
  // stale profile could otherwise pin a stale plan forever. The artifact
  // checksum is folded into the options fingerprint.
  const std::string Src = genProgram(11);
  CompileResult CR = compileSource(Src);
  ASSERT_TRUE(CR.ok());

  DepProfilerOptions DPO;
  DPO.MaxSteps = 4000000ull;
  DPO.Workload = "keytest";
  StatusOr<DepProfileArtifact> A = profileDependenceArtifact(*CR.M, DPO);
  ASSERT_TRUE(A.isOk()) << A.message();
  auto Artifact = std::make_shared<DepProfileArtifact>(A.value());

  // A second artifact with different contents (and so a different
  // checksum): reuse the first but perturb the observed step count.
  auto Artifact2 = std::make_shared<DepProfileArtifact>(A.value());
  Artifact2->Steps += 1;
  StatusOr<DepProfileArtifact> Reparsed =
      parseDepProfile(serializeDepProfile(*Artifact2));
  ASSERT_TRUE(Reparsed.isOk());
  *Artifact2 = Reparsed.value();
  ASSERT_NE(Artifact->Checksum, Artifact2->Checksum);

  const SptCompilerOptions Plain;
  EXPECT_NE(compilerOptionsFingerprint(Plain),
            compilerOptionsFingerprint(Plain.withProfileArtifact(Artifact)));
  EXPECT_NE(compilerOptionsFingerprint(Plain.withProfileArtifact(Artifact)),
            compilerOptionsFingerprint(Plain.withProfileArtifact(Artifact2)));
  // The provenance path is deliberately not part of the key; the same
  // artifact under two paths must share cache entries.
  EXPECT_EQ(compilerOptionsFingerprint(
                Plain.withProfileArtifact(Artifact, "a.sptprof")),
            compilerOptionsFingerprint(
                Plain.withProfileArtifact(Artifact, "b.sptprof")));

  // End to end: one batch with the artifact, one without, same source.
  // The cache must compile twice (no cross-key hit), and both runs must
  // complete.
  ServeOptions SO = baseOptions();
  ServeBatchReport Without = serveBatch(SO, {{1, "plain", Src}});
  SO.Compiler = SO.Compiler.withProfileArtifact(Artifact, "keytest.sptprof");
  ServeBatchReport With = serveBatch(SO, {{1, "measured", Src}});
  ASSERT_EQ(Without.Outcomes.size(), 1u);
  ASSERT_EQ(With.Outcomes.size(), 1u);
  EXPECT_EQ(Without.Outcomes[0].State, ServeState::Completed);
  EXPECT_EQ(With.Outcomes[0].State, ServeState::Completed);
  EXPECT_EQ(With.Cache.Hits, 0u);
}

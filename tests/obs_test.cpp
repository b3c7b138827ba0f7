//===- tests/obs_test.cpp - Observability layer tests ----------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The obs/ contracts: counter/histogram arithmetic, registry snapshots,
// the RAII span tracer and its Chrome trace export, the JSON parser and
// trace validator, the statistical accumulators folded in from
// support/Statistics.h, and — through compileSpt — the determinism
// contract of the whole instrumented pipeline:
//
//   * the stats dump is byte-identical across runs (counters are
//     additive/max-merged, histograms bucket by value, the dump carries
//     no wall-clock),
//   * enabling tracing leaves renderReportDeterministic byte-identical,
//   * the exported trace is valid Chrome trace_event JSON with properly
//     nested spans.
//
// Also pins the grouped SptCompilerOptions: nested option structs copy
// by value, and the builder setters chain.
//
//===----------------------------------------------------------------------===//

#include "spt.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

using namespace spt;

namespace {

// --- Counters, histograms, registry ------------------------------------===//

TEST(CounterTest, AddIncAndValue) {
  Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.add(5);
  C.inc();
  EXPECT_EQ(C.value(), 6u);
}

TEST(CounterTest, MaxIsMonotonic) {
  Counter C;
  C.max(7);
  EXPECT_EQ(C.value(), 7u);
  C.max(3); // Lower watermark never lowers the counter.
  EXPECT_EQ(C.value(), 7u);
  C.max(22);
  EXPECT_EQ(C.value(), 22u);
}

TEST(HistogramTest, PowerOfTwoBuckets) {
  EXPECT_EQ(Histogram::bucketFor(0), 0);
  EXPECT_EQ(Histogram::bucketFor(1), 1);
  EXPECT_EQ(Histogram::bucketFor(2), 2);
  EXPECT_EQ(Histogram::bucketFor(3), 2);
  EXPECT_EQ(Histogram::bucketFor(4), 3);
  EXPECT_EQ(Histogram::bucketFor(7), 3);
  EXPECT_EQ(Histogram::bucketFor(8), 4);
  // Everything above 2^30 collapses into the last bucket.
  EXPECT_EQ(Histogram::bucketFor(~0ull), Histogram::NumBuckets - 1);
}

TEST(HistogramTest, CountAndSumTrackSamples) {
  Histogram H;
  H.add(0);
  H.add(3);
  H.add(3);
  H.add(100);
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.sum(), 106u);
  EXPECT_EQ(H.bucket(0), 1u);
  EXPECT_EQ(H.bucket(2), 2u);
  EXPECT_EQ(H.bucket(7), 1u); // 100 is in [64, 128).
}

TEST(RegistryTest, CreateOnFirstUseIsStable) {
  Registry R;
  Counter *A = R.counter("a.b");
  EXPECT_EQ(A, R.counter("a.b"));
  A->add(3);
  R.counter("a.a")->add(1);
  R.histogram("h")->add(5);
  StatsSnapshot S;
  R.snapshotInto(S);
  ASSERT_EQ(S.Counters.size(), 2u);
  EXPECT_EQ(S.Counters.begin()->first, "a.a"); // Sorted by name.
  EXPECT_EQ(S.Counters["a.b"], 3u);
  ASSERT_EQ(S.Histograms.size(), 1u);
  EXPECT_EQ(S.Histograms["h"].Count, 1u);
  EXPECT_EQ(S.Histograms["h"].Sum, 5u);
}

TEST(ObsHelpersTest, NullContextIsNoop) {
  // Must not crash, must not allocate anything observable.
  obsAdd(nullptr, "x", 5);
  obsMax(nullptr, "x", 5);
  obsSample(nullptr, "x", 5);
  ObsSpan S(nullptr, "span");
}

TEST(ObsHelpersTest, ZeroDeltaAddsNoCounter) {
  ObsContext Ctx;
  obsAdd(&Ctx, "zero", 0);
  EXPECT_TRUE(Ctx.snapshot().Counters.empty());
  obsAdd(&Ctx, "one", 1);
  EXPECT_EQ(Ctx.snapshot().Counters.size(), 1u);
}

TEST(ObsSpanTest, RecordsNestedSpans) {
  ObsContext Ctx;
  {
    ObsSpan Outer(&Ctx, "outer");
    {
      ObsSpan Inner(&Ctx, "inner");
    }
    {
      ObsSpan Inner(&Ctx, "inner");
    }
  }
  StatsSnapshot S = Ctx.snapshot();
  EXPECT_EQ(S.SpanCounts["outer"], 1u);
  EXPECT_EQ(S.SpanCounts["inner"], 2u);

  std::string Err;
  size_t N = 0;
  EXPECT_TRUE(validateChromeTrace(exportChromeTrace(Ctx.Trace), Err, &N))
      << Err;
  EXPECT_EQ(N, 3u);
}

// --- Statistical accumulators (formerly support/Statistics.h) ----------===//

TEST(RunningStatTest, TracksMinMeanMax) {
  RunningStat S;
  S.add(2.0);
  S.add(4.0);
  S.add(6.0);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.mean(), 4.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 6.0);
  EXPECT_DOUBLE_EQ(S.sum(), 12.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
}

TEST(GeoMeanTest, MatchesClosedForm) {
  GeoMean G;
  G.add(1.0);
  G.add(4.0);
  EXPECT_NEAR(G.value(), 2.0, 1e-12);
}

TEST(CorrelationTest, PerfectPositive) {
  Correlation C;
  for (int I = 0; I < 10; ++I)
    C.add(I, 2.0 * I + 1.0);
  EXPECT_NEAR(C.pearson(), 1.0, 1e-12);
}

TEST(CorrelationTest, PerfectNegative) {
  Correlation C;
  for (int I = 0; I < 10; ++I)
    C.add(I, -3.0 * I);
  EXPECT_NEAR(C.pearson(), -1.0, 1e-12);
}

TEST(CorrelationTest, ZeroVarianceIsZero) {
  Correlation C;
  for (int I = 0; I < 10; ++I)
    C.add(5.0, I);
  EXPECT_DOUBLE_EQ(C.pearson(), 0.0);
}

// --- Stats rendering ----------------------------------------------------===//

StatsSnapshot sampleSnapshot() {
  ObsContext Ctx;
  obsAdd(&Ctx, "b.two", 2);
  obsAdd(&Ctx, "a.one", 1);
  obsSample(&Ctx, "hist", 3);
  obsSample(&Ctx, "hist", 0);
  {
    ObsSpan S(&Ctx, "s");
  }
  return Ctx.snapshot();
}

TEST(StatsRenderTest, TextIsDeterministicAndSorted) {
  const std::string A = renderStatsText(sampleSnapshot());
  const std::string B = renderStatsText(sampleSnapshot());
  EXPECT_EQ(A, B);
  EXPECT_NE(A.find("a.one 1"), std::string::npos);
  EXPECT_NE(A.find("b.two 2"), std::string::npos);
  EXPECT_LT(A.find("a.one"), A.find("b.two"));
  EXPECT_NE(A.find("s x1"), std::string::npos);
}

TEST(StatsRenderTest, JsonParsesBack) {
  const std::string J = renderStatsJson(sampleSnapshot());
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(J, V, Err)) << Err;
  ASSERT_TRUE(V.isObject());
  const json::Value *Counters = V.get("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_TRUE(Counters->isObject());
  EXPECT_EQ(Counters->Obj.size(), 2u);
  EXPECT_DOUBLE_EQ(Counters->Obj.at("b.two").Num, 2.0);
  const json::Value *Hist = V.get("histograms");
  ASSERT_NE(Hist, nullptr);
  EXPECT_DOUBLE_EQ(Hist->Obj.at("hist").Obj.at("count").Num, 2.0);
  const json::Value *Spans = V.get("spans");
  ASSERT_NE(Spans, nullptr);
  EXPECT_DOUBLE_EQ(Spans->Obj.at("s").Num, 1.0);
}

TEST(StatsRenderTest, EmptySnapshotRendersEmptyObjects) {
  StatsSnapshot S;
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(renderStatsJson(S), V, Err)) << Err;
  EXPECT_TRUE(V.get("counters")->Obj.empty());
}

// --- JSON parser + trace validator --------------------------------------===//

TEST(JsonTest, ParsesScalarsArraysObjects) {
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"e\": \"x\\n\\\"y\\\"\"}",
      V, Err))
      << Err;
  EXPECT_DOUBLE_EQ(V.get("a")->Arr[2].Num, -300.0);
  EXPECT_TRUE(V.get("b")->get("c")->B);
  EXPECT_EQ(V.get("b")->get("d")->K, json::Value::Kind::Null);
  EXPECT_EQ(V.get("e")->Str, "x\n\"y\"");
}

TEST(JsonTest, RejectsMalformedInput) {
  json::Value V;
  std::string Err;
  EXPECT_FALSE(json::parse("{", V, Err));
  EXPECT_FALSE(json::parse("{\"a\": }", V, Err));
  EXPECT_FALSE(json::parse("[1, 2,]", V, Err));
  EXPECT_FALSE(json::parse("tru", V, Err));
  EXPECT_FALSE(json::parse("{} trailing", V, Err));
}

namespace {
std::string traceJson(const std::string &Events) {
  return "{\"traceEvents\": [" + Events + "]}";
}
std::string event(double Ts, double Dur, int Tid = 1) {
  return "{\"name\": \"e\", \"cat\": \"spt\", \"ph\": \"X\", \"pid\": 1, "
         "\"tid\": " +
         std::to_string(Tid) + ", \"ts\": " + std::to_string(Ts) +
         ", \"dur\": " + std::to_string(Dur) + "}";
}
} // namespace

TEST(TraceValidatorTest, AcceptsProperNesting) {
  std::string Err;
  size_t N = 0;
  // parent [0, 100] containing child [10, 40], then sibling [50, 30].
  EXPECT_TRUE(validateChromeTrace(
      traceJson(event(0, 100) + ", " + event(10, 40) + ", " + event(50, 30)),
      Err, &N))
      << Err;
  EXPECT_EQ(N, 3u);
}

TEST(TraceValidatorTest, RejectsPartialOverlap) {
  std::string Err;
  // [0, 50] and [30, 40] overlap without containment: impossible for
  // RAII spans of one thread.
  EXPECT_FALSE(validateChromeTrace(
      traceJson(event(0, 50) + ", " + event(30, 40)), Err));
}

TEST(TraceValidatorTest, SeparateThreadsDoNotInteract) {
  std::string Err;
  // The same overlap is fine across different tids.
  EXPECT_TRUE(validateChromeTrace(
      traceJson(event(0, 50, 1) + ", " + event(30, 40, 2)), Err))
      << Err;
}

TEST(TraceValidatorTest, RejectsSchemaViolations) {
  std::string Err;
  EXPECT_FALSE(validateChromeTrace("{}", Err)); // No traceEvents.
  EXPECT_FALSE(validateChromeTrace("not json", Err));
  EXPECT_FALSE(validateChromeTrace(
      traceJson("{\"name\": \"e\", \"ph\": \"B\", \"pid\": 1, \"tid\": 1, "
                "\"ts\": 0, \"dur\": 1}"),
      Err)); // Only complete events.
  EXPECT_FALSE(validateChromeTrace(
      traceJson("{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 0, "
                "\"dur\": 1}"),
      Err)); // Missing name.
}

// --- Options: copies, builder -------------------------------------------===//

// SptCompilerOptions is a plain aggregate, so copying and assignment must
// be value-semantic with no storage shared between instances.
TEST(OptionsTest, CopyIsValueSemantic) {
  SptCompilerOptions A;
  A.Selection.CostFraction = 0.25;
  SptCompilerOptions B = A;
  EXPECT_DOUBLE_EQ(B.Selection.CostFraction, 0.25); // Value copied...
  B.Selection.CostFraction = 0.75;                  // ...storage is B's own.
  EXPECT_DOUBLE_EQ(B.Selection.CostFraction, 0.75);
  EXPECT_DOUBLE_EQ(A.Selection.CostFraction, 0.25);
}

TEST(OptionsTest, AssignmentIsValueSemantic) {
  SptCompilerOptions A, B;
  A.Selection.MinBodyWeight = 42.0;
  A.Enabling.Svp.MinHitRatio = 0.75;
  B = A;
  B.Selection.MinBodyWeight = 43.0;
  EXPECT_DOUBLE_EQ(A.Selection.MinBodyWeight, 42.0);
  EXPECT_DOUBLE_EQ(B.Selection.MinBodyWeight, 43.0);
  EXPECT_DOUBLE_EQ(B.Enabling.Svp.MinHitRatio, 0.75);
}

TEST(OptionsTest, BuilderChains) {
  ObsContext Ctx;
  CancelToken Tok;
  const SptCompilerOptions O = SptCompilerOptions::anticipated()
                                   .withSeed(99)
                                   .withPartitionDeadline(1.5)
                                   .withCancel(&Tok)
                                   .withTracing(&Ctx);
  EXPECT_EQ(O.Mode, CompilationMode::Anticipated);
  EXPECT_EQ(O.RngSeed, 99u);
  EXPECT_DOUBLE_EQ(O.MaxPartitionSeconds, 1.5);
  EXPECT_EQ(O.Cancel, &Tok);
  EXPECT_TRUE(O.Observability.Enabled);
  EXPECT_EQ(O.Observability.Context, &Ctx);
  EXPECT_EQ(SptCompilerOptions::basic().Mode, CompilationMode::Basic);
  EXPECT_EQ(SptCompilerOptions::best().Mode, CompilationMode::Best);
}

// --- Instrumented pipeline ----------------------------------------------===//

/// Compiles the first \p NumWorkloads workloads into \p Ctx and returns
/// the deterministic report renderings.
std::vector<std::string> compileInto(ObsContext &Ctx, size_t NumWorkloads) {
  std::vector<Workload> Suite = allWorkloads();
  Suite.resize(NumWorkloads);
  std::vector<std::string> Rendered;
  for (const Workload &W : Suite) {
    auto M = compileWorkload(W);
    SptCompilerOptions Opts = SptCompilerOptions::best().withTracing(&Ctx);
    Rendered.push_back(renderReportDeterministic(compileSpt(*M, Opts)));
  }
  return Rendered;
}

TEST(PipelineObsTest, StatsDumpByteIdenticalAcrossRuns) {
  ObsContext A, B;
  compileInto(A, 3);
  compileInto(B, 3);
  const std::string DumpA = renderStatsText(A.snapshot());
  EXPECT_EQ(DumpA, renderStatsText(B.snapshot()));
  // The pipeline counters the dump must carry (the acceptance set):
  // branch-and-bound prune heuristics and the incremental cost scratch.
  EXPECT_NE(DumpA.find("partition.prune."), std::string::npos) << DumpA;
  EXPECT_NE(DumpA.find("partition.nodes.visited"), std::string::npos);
  EXPECT_NE(DumpA.find("cost.scratch."), std::string::npos);
  EXPECT_NE(DumpA.find("driver.compilations 3"), std::string::npos);
}

TEST(PipelineObsTest, TracingLeavesReportByteIdentical) {
  std::vector<Workload> Suite = allWorkloads();
  Suite.resize(2);
  for (const Workload &W : Suite) {
    auto M1 = compileWorkload(W);
    auto M2 = compileWorkload(W);
    const std::string Plain =
        renderReportDeterministic(compileSpt(*M1, SptCompilerOptions()));
    const std::string Traced = renderReportDeterministic(
        compileSpt(*M2, SptCompilerOptions().withTracing()));
    EXPECT_EQ(Plain, Traced) << W.Name;
  }
}

TEST(PipelineObsTest, ReportCarriesStatsOnlyWhenEnabled) {
  auto M1 = compileWorkload(allWorkloads()[0]);
  const CompilationReport Off = compileSpt(*M1, SptCompilerOptions());
  EXPECT_TRUE(Off.Stats.empty());

  auto M2 = compileWorkload(allWorkloads()[0]);
  const CompilationReport On =
      compileSpt(*M2, SptCompilerOptions().withTracing());
  EXPECT_FALSE(On.Stats.empty());
  EXPECT_EQ(On.Stats.Counters.at("driver.compilations"), 1u);
  EXPECT_EQ(On.Stats.SpanCounts.at("compile"), 1u);
  EXPECT_EQ(On.Stats.SpanCounts.at("pass1"), 1u);
  EXPECT_EQ(On.Stats.SpanCounts.at("pass2"), 1u);
}

TEST(PipelineObsTest, GraphCountersDeterministic) {
  auto counters = [](const SptCompilerOptions &Base) {
    auto M = compileWorkload(allWorkloads()[0]);
    const CompilationReport R = compileSpt(*M, Base.withTracing());
    auto count = [&](const char *Name) {
      auto It = R.Stats.Counters.find(Name);
      return It == R.Stats.Counters.end() ? uint64_t(0) : It->second;
    };
    EXPECT_EQ(R.Stats.SpanCounts.at("driver.function_weights"), 2u);
    // The value watch runs once per compile that watches values.
    auto Watch = R.Stats.SpanCounts.find("driver.value_watch");
    EXPECT_EQ(Watch == R.Stats.SpanCounts.end() ? uint64_t(0) : Watch->second,
              Base.Mode == CompilationMode::Basic ? 0u : 1u);
    // Basic runs no SVP, so stage C never re-profiles.
    if (Base.Mode == CompilationMode::Basic) {
      EXPECT_EQ(R.Stats.SpanCounts.count("profile.reprofile"), 0u);
    }
    return std::make_pair(count("driver.depgraph.builds"),
                          count("driver.value_watch.stmts"));
  };
  // Basic mode runs no SVP, so stage B watches nothing.
  const auto Basic = counters(SptCompilerOptions::basic());
  EXPECT_GT(Basic.first, 0u);
  EXPECT_EQ(Basic.second, 0u);
  const auto Best = counters(SptCompilerOptions::best());
  EXPECT_GT(Best.first, 0u);
  EXPECT_GT(Best.second, 0u);
  EXPECT_EQ(counters(SptCompilerOptions::best()), Best);
}

/// Graph builds and plan reuses of one compile of \p Src.
struct PlanCounts {
  uint64_t Builds = 0;
  uint64_t Reused = 0;
  CompilationReport Report;
};

PlanCounts planCounts(const char *Src, const SptCompilerOptions &Opts) {
  auto M = compileOrDie(Src);
  PlanCounts Out;
  Out.Report = compileSpt(*M, Opts.withTracing());
  const auto &C = Out.Report.Stats.Counters;
  auto count = [&](const char *Name) {
    auto It = C.find(Name);
    return It == C.end() ? uint64_t(0) : It->second;
  };
  Out.Builds = count("driver.depgraph.builds");
  Out.Reused = count("driver.plans.reused");
  return Out;
}

/// Two heavy sibling loops in main, each selected on its own.
const char *TwoLoopSrc =
    "fp a[2048]; fp b[2048]; int out[4];\n"
    "int main() {\n"
    "  int i; fp s; fp t;\n"
    "  for (i = 0; i < 2048; i = i + 1) {\n"
    "    fp v;\n"
    "    v = itof(i % 97) * 3.0 + 1.0;\n"
    "    v = v / 7.0 + sqrt(v) * 1.25;\n"
    "    v = v * v + sqrt(v + 2.0);\n"
    "    a[i] = v;\n"
    "    s = s + v;\n"
    "  }\n"
    "  for (i = 0; i < 2048; i = i + 1) {\n"
    "    fp w;\n"
    "    w = itof(i % 89) * 2.0 + 0.5;\n"
    "    w = w / 3.0 + sqrt(w) * 1.5;\n"
    "    w = w * w + sqrt(w + 1.0);\n"
    "    b[i] = w;\n"
    "    t = t + w;\n"
    "  }\n"
    "  out[0] = ftoi(s + t);\n"
    "  return out[0];\n"
    "}\n";

TEST(PipelineObsTest, PassTwoReusesThePlanOfEachFunctionsFirstTransform) {
  // Pass 1 builds both loops' plans. Pass 2 transforms the first loop with
  // its plan; the transform rewrites main, so the second loop's plan is
  // rebuilt.
  const PlanCounts C = planCounts(TwoLoopSrc, SptCompilerOptions::basic());
  ASSERT_EQ(C.Report.numSelected(), 2u)
      << renderReportDeterministic(C.Report);
  EXPECT_EQ(C.Builds, 3u);
  EXPECT_EQ(C.Reused, 1u);
}

TEST(PipelineObsTest, SvpReprofileLeavesOnlyPassTwoReuse) {
  // DriverTest.SvpEnablesLoopWithPredictableRecurrence's program: SVP
  // rewrites main and re-profiles, so pass 1 takes none of stage C's
  // plans, and pass 2 takes one per function with a transformed loop.
  const char *Src =
      "int out[4096];\n"
      "int main() {\n"
      "  int x; int s; int i; int r;\n"
      "  for (r = 0; r < 4; r = r + 1) {\n"
      "    x = 1;\n"
      "    for (i = 0; i < 1024; i = i + 1) {\n"
      "      fp t;\n"
      "      t = sqrt(itof(x)) + sqrt(itof(x + i)) + sqrt(itof(x * 3));\n"
      "      x = x + 4 + ftoi(t) * 0;\n"
      "      out[i] = x + ftoi(t);\n"
      "      s = s + x;\n"
      "    }\n"
      "  }\n"
      "  return s;\n"
      "}\n";
  const PlanCounts C = planCounts(Src, SptCompilerOptions::best());
  bool Svp = false;
  std::set<std::string> Transformed;
  for (const LoopRecord &Rec : C.Report.Loops) {
    Svp |= Rec.SvpApplied;
    if (Rec.Selected)
      Transformed.insert(Rec.FuncName);
  }
  ASSERT_TRUE(Svp);
  ASSERT_FALSE(Transformed.empty());
  EXPECT_EQ(C.Reused, Transformed.size());
  EXPECT_GT(C.Builds, C.Reused);
  // The re-profile runs once, in its own span.
  EXPECT_EQ(C.Report.Stats.SpanCounts.at("profile.reprofile"), 1u);
}

TEST(PipelineObsTest, PlanCountersDeterministic) {
  const PlanCounts A = planCounts(TwoLoopSrc, SptCompilerOptions::best());
  const PlanCounts B = planCounts(TwoLoopSrc, SptCompilerOptions::best());
  EXPECT_GT(A.Reused, 0u);
  EXPECT_EQ(A.Builds, B.Builds);
  EXPECT_EQ(A.Reused, B.Reused);
}

TEST(PipelineObsTest, SimFastPathCountersFlushedAndPinned) {
  // The batched violation-closure count is flushed once per run, like the
  // speculation counters, and must agree exactly with the per-run
  // SimPerfCounters in the report — and be byte-identical across
  // identical runs.
  auto run = [](ObsContext *Ctx) {
    auto M = compileWorkload(allWorkloads()[0]);
    const CompilationReport Rep = compileSpt(*M, SptCompilerOptions::best());
    return runSpt(*M, "main", {}, Rep.SptLoops, MachineConfig(),
                  500000000ull, 0x5eed5eed5eedull, nullptr, Ctx);
  };
  ObsContext A, B;
  const SptSimResult RA = run(&A);
  run(&B);
  const StatsSnapshot SA = A.snapshot();
  EXPECT_EQ(renderStatsText(SA), renderStatsText(B.snapshot()));

  EXPECT_EQ(SA.Counters.at("sim.runs"), 1u);
  EXPECT_EQ(SA.Counters.at("sim.violation.batch"),
            RA.Perf.ViolationBatches);
  // One closure batch runs per speculative thread (joined or squashed).
  uint64_t Ghosts = 0;
  for (const auto &[Id, S] : RA.PerLoop) {
    (void)Id;
    Ghosts += S.Joins + S.Squashed;
  }
  EXPECT_GT(Ghosts, 0u);
  EXPECT_EQ(RA.Perf.ViolationBatches, Ghosts);
}

TEST(PipelineObsTest, KwayCountersFlushedAndPinned) {
  // Compiling for a 4-core machine runs the k-way chain search on every
  // searched loop; its telemetry must be pinned to the report's own Kway
  // records.
  auto M = compileWorkload(allWorkloads()[0]);
  ObsContext Ctx;
  const CompilationReport R1 = compileSpt(
      *M, SptCompilerOptions::best().withCores(4).withTracing(&Ctx));
  const StatsSnapshot S1 = Ctx.snapshot();

  uint64_t Searches = 0, Levels = 0, Nodes = 0, Evals = 0;
  for (const LoopRecord &L : R1.Loops) {
    if (!L.Kway.Searched)
      continue;
    ++Searches;
    Levels += L.Kway.Cuts.size();
    Nodes += L.Kway.NodesVisited;
    Evals += L.Kway.CostEvals;
  }
  ASSERT_GT(Searches, 0u);
  EXPECT_EQ(S1.Counters.at("partition.kway.searches"), Searches);
  EXPECT_EQ(S1.Counters.at("partition.kway.levels"), Levels);
  EXPECT_EQ(S1.Counters.at("partition.kway.nodes.visited"), Nodes);
  EXPECT_EQ(S1.Counters.at("partition.kway.cost.evals"), Evals);
}

TEST(PipelineObsTest, CoreChainCountersPinnedToCoreStats) {
  // The generalized engine's chain telemetry (sim.core.*) is flushed once
  // per run and must equal the per-slot SptCoreStats totals in the result.
  auto M = compileWorkload(allWorkloads()[0]);
  const CompilationReport Rep = compileSpt(*M, SptCompilerOptions::best());
  ObsContext Ctx;
  MachineConfig MC;
  MC.Cores = 4;
  const SptSimResult R = runSpt(*M, "main", {}, Rep.SptLoops, MC,
                                500000000ull, 0x5eed5eed5eedull,
                                /*Injector=*/nullptr, &Ctx);
  const StatsSnapshot S = Ctx.snapshot();
  auto Get = [&](const char *Key) {
    auto It = S.Counters.find(Key);
    return It == S.Counters.end() ? uint64_t(0) : It->second;
  };
  // chain_forks counts only slots beyond the first — the primary fork is
  // already reported through sim.forks.
  uint64_t ChainForks = 0, Commits = 0, Squashes = 0;
  for (size_t I = 0; I != R.CoreStats.size(); ++I) {
    if (I > 0)
      ChainForks += R.CoreStats[I].Forks;
    Commits += R.CoreStats[I].Commits;
    Squashes += R.CoreStats[I].Squashes;
  }
  EXPECT_EQ(Get("sim.core.chain_forks"), ChainForks);
  EXPECT_EQ(Get("sim.core.commits"), Commits);
  EXPECT_EQ(Get("sim.core.squashes"), Squashes);
  EXPECT_GT(ChainForks, 0u) << "the workload must chain beyond two cores";
}

TEST(PipelineObsTest, ExportedTraceValidatesAndNests) {
  // Two threads compile into one context, as batch-server workers do, so
  // the trace has more than one lane.
  ObsContext Ctx;
  std::thread Other([&] { compileInto(Ctx, 1); });
  compileInto(Ctx, 2);
  Other.join();
  const std::string Trace = exportChromeTrace(Ctx.Trace);
  std::string Err;
  size_t N = 0;
  ASSERT_TRUE(validateChromeTrace(Trace, Err, &N)) << Err;
  EXPECT_GT(N, 0u);
  // Span taxonomy sanity: the stage spans made it into the export.
  EXPECT_NE(Trace.find("\"stageA.unroll\""), std::string::npos);
  EXPECT_NE(Trace.find("\"pass1.loop "), std::string::npos);
}

} // namespace

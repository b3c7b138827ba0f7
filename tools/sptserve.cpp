//===- tools/sptserve.cpp - Batch compilation service CLI ------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Command-line driver for the serve/ subsystem. Modes:
//
//   sptserve --selfcheck     deterministic acceptance sweep over every
//                            robustness feature (ladder, quarantine,
//                            backpressure, cache corruption, deadlines,
//                            chaos byte-identity, profile drift); CI
//                            entry point
//   sptserve --batch         compile a batch (generated and/or corpus
//                            programs) through the server and print the
//                            summary; --verify re-runs fault-free and
//                            requires byte-identical reports
//
// Everything is deterministic for a fixed --seed: chaos faults are a pure
// function of (seed, program, attempt), never of thread interleaving.
//
//===----------------------------------------------------------------------===//

#include "spt.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace spt;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: sptserve MODE [options]\n"
      "\n"
      "modes:\n"
      "  --selfcheck        run the deterministic robustness acceptance\n"
      "                     sweep (deadlines, ladder, quarantine,\n"
      "                     backpressure, cache corruption, chaos\n"
      "                     byte-identity); exits 1 on any failure\n"
      "  --batch            feed a batch through the server and print the\n"
      "                     drain summary\n"
      "\n"
      "options:\n"
      "  --programs N       generated programs in the batch (default 100)\n"
      "  --corpus DIR       also serve every .sptc file of DIR\n"
      "  --jobs N           worker threads (default 4)\n"
      "  --deadline S       per-attempt deadline in seconds (default 0 =\n"
      "                     none)\n"
      "  --queue N          admission bound; 0 = unbounded (default 0 for\n"
      "                     --batch, which uses blocking submits)\n"
      "  --strikes N        quarantine strike limit (default 3)\n"
      "  --cache-cap N      compile cache capacity (default 4096)\n"
      "  --chaos RATE       per-attempt fault probability (default 0)\n"
      "  --seed N           master seed (default 1)\n"
      "  --max-steps N      profiling step budget per compile\n"
      "  --verify           after --batch, re-run fault-free at one worker\n"
      "                     and require byte-identical reports for every\n"
      "                     non-faulted request\n"
      "  --report FILE      write one line per outcome to FILE\n"
      "  --stats            print the observability stats dump on stderr\n");
}

bool parseUint(const char *S, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End && *End == '\0' && End != S;
}

bool parseDouble(const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return End && *End == '\0' && End != S;
}

struct CliOptions {
  uint64_t Programs = 100;
  std::string CorpusDir;
  unsigned Jobs = 4;
  double Deadline = 0.0;
  size_t Queue = 0;
  uint32_t Strikes = 3;
  size_t CacheCap = 4096;
  double Chaos = 0.0;
  uint64_t Seed = 1;
  uint64_t MaxSteps = 20000000ull;
  bool Verify = false;
  std::string ReportPath;
  ObsContext *Obs = nullptr;
};

/// Small programs so the selfcheck stays fast under sanitizers.
GeneratorOptions smallGenerator() {
  GeneratorOptions GO;
  GO.MinLoops = 2;
  GO.MaxLoops = 3;
  GO.MaxStmtsPerBody = 5;
  GO.MaxTrip = 100;
  return GO;
}

std::vector<ServeRequest> buildBatch(const CliOptions &Cli,
                                     const GeneratorOptions &GO) {
  std::vector<ServeRequest> Batch;
  uint64_t NextId = 1;
  if (!Cli.CorpusDir.empty()) {
    Corpus C;
    size_t Loaded = C.loadDirectory(Cli.CorpusDir);
    if (Loaded == 0) {
      std::fprintf(stderr, "sptserve: no .sptc programs under '%s'\n",
                   Cli.CorpusDir.c_str());
      std::exit(2);
    }
    std::fprintf(stderr, "sptserve: loaded %zu corpus programs from %s\n",
                 Loaded, Cli.CorpusDir.c_str());
    for (const CorpusEntry &E : C.entries()) {
      ServeRequest R;
      R.Id = NextId++;
      R.Name = "corpus/" + std::to_string(E.ContentHash);
      R.Source = E.Source;
      Batch.push_back(std::move(R));
    }
  }
  for (uint64_t I = 0; I != Cli.Programs; ++I) {
    ServeRequest R;
    R.Id = NextId++;
    R.Name = "gen/" + std::to_string(Cli.Seed) + "/" + std::to_string(I);
    R.Source = generateProgram(Cli.Seed + I, GO);
    Batch.push_back(std::move(R));
  }
  return Batch;
}

ServeOptions serveOptionsFromCli(const CliOptions &Cli) {
  ServeOptions SO;
  SO.Workers = Cli.Jobs;
  SO.MaxQueue = Cli.Queue;
  SO.AttemptDeadlineSeconds = Cli.Deadline;
  SO.StrikeLimit = Cli.Strikes;
  SO.CacheCapacity = Cli.CacheCap;
  SO.ChaosFaultRate = Cli.Chaos;
  SO.ChaosSeed = Cli.Seed ^ 0xc4a05ull;
  SO.ChaosCorruptCache = Cli.Chaos > 0.0;
  SO.Compiler.ProfileMaxSteps = Cli.MaxSteps;
  SO.Obs = Cli.Obs;
  return SO;
}

void writeReportFile(const std::string &Path, const ServeBatchReport &Batch) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "sptserve: cannot write %s\n", Path.c_str());
    return;
  }
  for (const ServeOutcome &O : Batch.Outcomes)
    Out << O.Id << ' ' << serveStateName(O.State) << ' '
        << compilationModeName(O.EffectiveMode) << " cache_hit="
        << (O.CacheHit ? 1 : 0) << " attempts=" << O.Attempts
        << " faulted=" << (O.Faulted ? 1 : 0) << " hash=" << O.ContentHash
        << ' ' << O.Name
        << (O.Error.isOk() ? "" : (" error=\"" + O.Error.message() + "\""))
        << '\n';
}

/// Runs \p Batch through a server built from \p SO and drains it.
ServeBatchReport runBatch(const ServeOptions &SO,
                          const std::vector<ServeRequest> &Batch) {
  BatchCompileServer Server(SO);
  Server.start();
  for (const ServeRequest &R : Batch)
    Server.submitOrWait(R);
  return Server.drain();
}

/// Byte-compares every non-faulted outcome of \p Got against the
/// fault-free reference \p Ref (matched by request Id). Returns the number
/// of mismatches and prints each one.
unsigned compareAgainstReference(const ServeBatchReport &Ref,
                                 const ServeBatchReport &Got) {
  std::map<uint64_t, const ServeOutcome *> ById;
  for (const ServeOutcome &O : Ref.Outcomes)
    ById[O.Id] = &O;
  unsigned Mismatches = 0;
  for (const ServeOutcome &O : Got.Outcomes) {
    if (O.Faulted || O.State == ServeState::Quarantined)
      continue; // Chaos legitimately changed this request's course.
    auto It = ById.find(O.Id);
    if (It == ById.end()) {
      std::fprintf(stderr, "sptserve: request %llu missing from reference\n",
                   static_cast<unsigned long long>(O.Id));
      ++Mismatches;
      continue;
    }
    const ServeOutcome &R = *It->second;
    if (O.Report != R.Report || O.Error.message() != R.Error.message()) {
      std::fprintf(stderr,
                   "sptserve: request %llu (%s) diverged from the "
                   "fault-free reference (state %s vs %s)\n",
                   static_cast<unsigned long long>(O.Id), O.Name.c_str(),
                   serveStateName(O.State), serveStateName(R.State));
      ++Mismatches;
    }
  }
  return Mismatches;
}

int runBatchMode(const CliOptions &Cli) {
  std::vector<ServeRequest> Batch = buildBatch(Cli, GeneratorOptions());
  if (Batch.empty()) {
    std::fprintf(stderr, "sptserve: nothing to compile (no --programs, "
                         "empty --corpus)\n");
    return 2;
  }
  ServeBatchReport Report = runBatch(serveOptionsFromCli(Cli), Batch);
  std::fputs(Report.renderSummary().c_str(), stdout);
  if (!Cli.ReportPath.empty())
    writeReportFile(Cli.ReportPath, Report);

  if (Report.Outcomes.size() != Batch.size()) {
    std::fprintf(stderr,
                 "sptserve: FAILED: %zu outcomes for %zu requests (a "
                 "request was lost)\n",
                 Report.Outcomes.size(), Batch.size());
    return 1;
  }

  if (Cli.Verify) {
    // Fault-free single-worker reference with the cache off: the gold
    // standard every non-faulted concurrent outcome must byte-match.
    CliOptions RefCli = Cli;
    RefCli.Jobs = 1;
    RefCli.Chaos = 0.0;
    RefCli.CacheCap = 0;
    RefCli.Obs = nullptr;
    ServeBatchReport Ref = runBatch(serveOptionsFromCli(RefCli), Batch);
    unsigned Bad = compareAgainstReference(Ref, Report);
    if (Bad != 0) {
      std::fprintf(stderr, "sptserve: verify FAILED: %u mismatches\n", Bad);
      return 1;
    }
    std::fprintf(stderr,
                 "sptserve: verify passed: %zu non-faulted outcomes "
                 "byte-identical to the fault-free reference\n",
                 Report.Outcomes.size() - Report.ChaosFaults);
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Selfcheck
//===----------------------------------------------------------------------===//

bool check(bool Cond, const char *What, std::string Detail = "") {
  if (Cond) {
    std::fprintf(stderr, "sptserve: selfcheck: %s ok\n", What);
    return true;
  }
  std::fprintf(stderr, "sptserve: selfcheck FAILED: %s%s%s\n", What,
               Detail.empty() ? "" : ": ", Detail.c_str());
  return false;
}

bool contains(const std::string &Haystack, const char *Needle) {
  return Haystack.find(Needle) != std::string::npos;
}

/// Chaos run vs fault-free reference: every request resolves, non-faulted
/// outcomes byte-identical, faulted ones resolved via the ladder.
bool selfcheckChaosIdentity(const CliOptions &Cli) {
  CliOptions Base = Cli;
  Base.Programs = 16;
  std::vector<ServeRequest> Batch = buildBatch(Base, smallGenerator());

  CliOptions RefCli = Base;
  RefCli.Jobs = 1;
  RefCli.Chaos = 0.0;
  RefCli.CacheCap = 0;
  ServeBatchReport Ref = runBatch(serveOptionsFromCli(RefCli), Batch);

  CliOptions ChaosCli = Base;
  ChaosCli.Jobs = 4;
  ChaosCli.Chaos = 0.5;
  ServeBatchReport Got = runBatch(serveOptionsFromCli(ChaosCli), Batch);

  if (!check(Got.Outcomes.size() == Batch.size() &&
                 Ref.Outcomes.size() == Batch.size(),
             "chaos: every request resolves",
             std::to_string(Got.Outcomes.size()) + " of " +
                 std::to_string(Batch.size())))
    return false;
  if (!check(Got.ChaosFaults > 0, "chaos: faults actually injected"))
    return false;
  unsigned Bad = compareAgainstReference(Ref, Got);
  if (!check(Bad == 0, "chaos: non-faulted outcomes byte-identical",
             std::to_string(Bad) + " mismatches"))
    return false;
  for (const ServeOutcome &O : Got.Outcomes)
    if (O.Faulted && O.State == ServeState::Completed)
      return check(false, "chaos: faulted requests resolve via the ladder",
                   "request " + std::to_string(O.Id) +
                       " completed at the requested mode despite a fault");
  return check(true, "chaos: faulted requests resolve via the ladder");
}

/// A duplicate program in a one-worker batch must be served from cache,
/// byte-identically.
bool selfcheckCacheHit(const CliOptions &Cli) {
  const std::string Src = generateProgram(Cli.Seed, smallGenerator());
  CliOptions C = Cli;
  C.Jobs = 1;
  ServeBatchReport R = runBatch(serveOptionsFromCli(C),
                                {{1, "first", Src}, {2, "dup", Src}});
  if (R.Outcomes.size() != 2)
    return check(false, "cache: duplicate served from cache", "lost outcome");
  const ServeOutcome &A = R.Outcomes[0], &B = R.Outcomes[1];
  return check(!A.CacheHit && B.CacheHit && A.Report == B.Report &&
                   !A.Report.empty(),
               "cache: duplicate served from cache, byte-identical");
}

/// A corrupted cache entry must be detected (counted), treated as a miss,
/// and never served; the recompile must byte-match the original.
bool selfcheckCacheCorruption(const CliOptions &Cli) {
  const std::string Src = generateProgram(Cli.Seed + 7, smallGenerator());
  CliOptions C = Cli;
  C.Jobs = 1;
  BatchCompileServer Server(serveOptionsFromCli(C));
  Server.start();
  Server.submitOrWait({1, "seed", Src});
  ServeBatchReport First = Server.drain();
  if (First.Outcomes.size() != 1 || First.Outcomes[0].Report.empty())
    return check(false, "cache: corruption detected", "seed compile failed");
  if (!Server.corruptOneCacheEntry())
    return check(false, "cache: corruption detected", "no entry to corrupt");
  Server.start();
  Server.submitOrWait({2, "probe", Src});
  ServeBatchReport Second = Server.drain();
  if (Second.Outcomes.size() != 1)
    return check(false, "cache: corruption detected", "probe lost");
  const ServeOutcome &O = Second.Outcomes[0];
  return check(!O.CacheHit && O.Report == First.Outcomes[0].Report &&
                   Server.cacheStats().Corrupt == 1,
               "cache: corruption detected, counted, never served");
}

/// StrikeLimit failed attempts must quarantine subsequent requests for
/// the same content hash.
bool selfcheckQuarantine(const CliOptions &Cli) {
  const std::string Src = generateProgram(Cli.Seed + 13, smallGenerator());
  CliOptions C = Cli;
  C.Jobs = 1;
  C.Chaos = 1.0; // Every attempt faults: the ladder runs dry.
  C.Strikes = 1;
  C.CacheCap = 0;
  BatchCompileServer Server(serveOptionsFromCli(C));
  Server.start();
  Server.submitOrWait({1, "poison", Src});
  ServeBatchReport First = Server.drain();
  if (First.Outcomes.size() != 1 ||
      First.Outcomes[0].State != ServeState::Skipped)
    return check(false, "quarantine: poison program refused after strikes",
                 "expected the first request to be skipped, got " +
                     std::string(First.Outcomes.empty()
                                     ? "nothing"
                                     : serveStateName(First.Outcomes[0].State)));
  Server.start();
  Server.submitOrWait({2, "poison-again", Src});
  ServeBatchReport Second = Server.drain();
  return check(Second.Outcomes.size() == 1 &&
                   Second.Outcomes[0].State == ServeState::Quarantined &&
                   contains(Second.Outcomes[0].Error.message(), "quarantined"),
               "quarantine: poison program refused after strikes");
}

/// submit() must refuse, with a structured error, past MaxQueue; the
/// admitted requests must still complete after start().
bool selfcheckBackpressure(const CliOptions &Cli) {
  CliOptions C = Cli;
  C.Jobs = 1;
  C.Queue = 2;
  const std::string Src = generateProgram(Cli.Seed + 21, smallGenerator());
  BatchCompileServer Server(serveOptionsFromCli(C));
  // Deliberately not started: the queue fills deterministically.
  Status S1 = Server.submit({1, "a", Src});
  Status S2 = Server.submit({2, "b", Src});
  Status S3 = Server.submit({3, "c", Src});
  if (!check(S1.isOk() && S2.isOk() && !S3.isOk() &&
                 contains(S3.message(), "ServerOverloaded"),
             "backpressure: submit refuses past MaxQueue",
             "third submit: " + S3.message()))
    return false;
  Server.start();
  ServeBatchReport R = Server.drain();
  return check(R.Outcomes.size() == 2 && R.RejectedOverload == 1,
               "backpressure: admitted requests still complete");
}

/// An unmeetable per-attempt deadline must burn both rungs and skip with
/// a deadline-shaped error — never hang or crash.
bool selfcheckDeadline(const CliOptions &Cli) {
  CliOptions C = Cli;
  C.Jobs = 1;
  C.Deadline = 1e-9;
  C.CacheCap = 0;
  const std::string Src = generateProgram(Cli.Seed + 34, smallGenerator());
  ServeBatchReport R = runBatch(serveOptionsFromCli(C), {{1, "slow", Src}});
  if (R.Outcomes.size() != 1)
    return check(false, "deadline: expiry skips structuredly", "lost outcome");
  const ServeOutcome &O = R.Outcomes[0];
  return check(O.State == ServeState::Skipped && O.Attempts == 2 &&
                   contains(O.Error.message(), "deadline"),
               "deadline: expiry skips structuredly after both rungs",
               "state=" + std::string(serveStateName(O.State)) +
                   " attempts=" + std::to_string(O.Attempts) +
                   " error=" + O.Error.message());
}

/// The profile-drift scenario (docs/profiling.md): a dependence-profile
/// artifact measured under one input distribution goes stale when the
/// distribution shifts, the drift metric detects it, the artifact's
/// fingerprint keeps the stale plan out of the compile cache's way, and
/// recompiling against a fresh profile beats keeping the stale plan
/// running.
bool selfcheckProfileDrift(const CliOptions &Cli) {
  // work(d) reads a[i-d] and feeds the whole loop body from it: d=1 is a
  // distance-1 recurrence (a cross-iteration conflict every iteration),
  // d=1024 never conflicts inside the loop. The body is straight-line on
  // purpose: its heuristic weight equals its measured weight and sits
  // inside [MinBodyWeight, MaxBodyWeight], so the loop is never
  // unrolled. That keeps the artifact authoritative for it — an unrolled
  // body does not read the artifact (its clones carry statement ids the
  // measurements never observed), which would defeat the very coverage
  // this scenario exercises.
  static const char *Src =
      "int a[2048];\n"
      "int work(int d) {\n"
      "  int i; int t; int v;\n"
      "  for (i = 0; i < 1024; i = i + 1) { a[i] = i * 7 % 97; }\n"
      "  for (i = 1024; i < 1536; i = i + 1) {\n"
      "    v = a[i - d];\n"
      "    t = v + 1;\n"
      "    t = t * 3 % 1009;\n"
      "    t = t + v;\n"
      "    t = t * 5 % 1013;\n"
      "    t = t + (v ^ 2);\n"
      "    t = t * 7 % 1019;\n"
      "    t = t + v;\n"
      "    t = t * 11 % 1021;\n"
      "    t = t + (v ^ 5);\n"
      "    t = t * 13 % 1031;\n"
      "    t = t + v;\n"
      "    t = t * 17 % 1033;\n"
      "    t = t + (v ^ 9);\n"
      "    t = t * 19 % 1039;\n"
      "    t = t + v;\n"
      "    t = t * 23 % 1049;\n"
      "    t = t + (v ^ 3);\n"
      "    t = t * 29 % 1051;\n"
      "    t = t + v;\n"
      "    t = t * 31 % 1061;\n"
      "    a[i] = t % 997 + 3;\n"
      "  }\n"
      "  return a[1535] + a[1100];\n"
      "}\n"
      "int main() { return work(1); }\n";

  CompileResult CR = compileSource(Src);
  if (!CR.ok())
    return check(false, "drift: scenario program compiles");
  auto profileAt = [&](int64_t D) {
    DepProfilerOptions O;
    O.Entry = "work";
    O.Args = {Value::ofInt(D)};
    O.Workload = D == 1 ? "dense" : "sparse";
    return profileDependenceArtifact(*CR.M, O);
  };
  // The stale plan was measured while the input was dense (a conflict
  // every iteration); the distribution then shifts to conflict-free.
  StatusOr<DepProfileArtifact> StaleOr = profileAt(1);
  StatusOr<DepProfileArtifact> FreshOr = profileAt(1024);
  if (!check(StaleOr.isOk() && FreshOr.isOk(),
             "drift: profiling both input distributions",
             (StaleOr.isOk() ? FreshOr : StaleOr).message()))
    return false;
  auto Stale = std::make_shared<DepProfileArtifact>(StaleOr.value());
  auto Fresh = std::make_shared<DepProfileArtifact>(FreshOr.value());

  const double Threshold = DepProfileDriftThreshold;
  if (!check(depProfileDrift(*Stale, *Stale) == 0.0 &&
                 depProfileDrift(*Stale, *Fresh) > Threshold,
             "drift: shifted distribution clears the staleness threshold",
             "drift=" + std::to_string(depProfileDrift(*Stale, *Fresh))))
    return false;

  // The artifact is part of the cache key, so a recompile against the
  // fresh profile can never be satisfied by the stale plan's entry.
  SptCompilerOptions Plain;
  if (!check(compilerOptionsFingerprint(Plain.withProfileArtifact(Stale)) !=
                 compilerOptionsFingerprint(Plain.withProfileArtifact(Fresh)),
             "drift: stale and fresh artifacts key the cache differently"))
    return false;

  // Serve the program under both plans: the stale-profiled server
  // refuses to speculate the recurrence loop, the fresh one selects it —
  // different reports for the same source, each internally cacheable.
  auto serveWith = [&](std::shared_ptr<const DepProfileArtifact> A) {
    CliOptions C = Cli;
    C.Jobs = 1;
    ServeOptions SO = serveOptionsFromCli(C);
    SO.Compiler = SO.Compiler.withProfileArtifact(A, "drift-artifact");
    return runBatch(SO, {{1, "drift", Src}, {2, "drift-dup", Src}});
  };
  ServeBatchReport SR = serveWith(Stale);
  ServeBatchReport FR = serveWith(Fresh);
  if (SR.Outcomes.size() != 2 || FR.Outcomes.size() != 2 ||
      SR.Outcomes[0].Report.empty() || FR.Outcomes[0].Report.empty())
    return check(false, "drift: both plans serve cleanly");
  if (!check(SR.Outcomes[1].CacheHit && FR.Outcomes[1].CacheHit,
             "drift: each plan is served from cache on repeat"))
    return false;
  if (!check(SR.Outcomes[0].Report != FR.Outcomes[0].Report,
             "drift: stale and fresh plans produce different reports"))
    return false;

  // Compile both plans locally and simulate under the *shifted* (sparse)
  // distribution: keeping the stale plan running leaves the recurrence
  // loop sequential; the fresh recompile speculates it violation-free.
  auto compileWith = [&](std::shared_ptr<const DepProfileArtifact> A) {
    CompileResult C = compileSource(Src);
    CompilationReport R =
        compileSpt(*C.M, Plain.withProfileArtifact(A, "drift-artifact"));
    return std::make_pair(std::move(C.M), std::move(R));
  };
  auto [StaleM, StaleR] = compileWith(Stale);
  auto [FreshM, FreshR] = compileWith(Fresh);
  if (!check(FreshR.SptLoops.size() > StaleR.SptLoops.size(),
             "drift: the fresh profile unlocks a speculative loop",
             "stale=" + std::to_string(StaleR.SptLoops.size()) +
                 " fresh=" + std::to_string(FreshR.SptLoops.size())))
    return false;

  const std::vector<Value> Shifted = {Value::ofInt(1024)};
  SeqSimResult Seq = runSequential(*CR.M, "work", Shifted);
  SptSimResult KeepRunning =
      runSpt(*StaleM, "work", Shifted, StaleR.SptLoops);
  SptSimResult Recompiled = runSpt(*FreshM, "work", Shifted, FreshR.SptLoops);
  uint64_t FreshViolations = 0;
  for (const auto &KV : Recompiled.PerLoop)
    FreshViolations += KV.second.ViolatedThreads;
  if (!check(Seq.Result.I == KeepRunning.Result.I &&
                 Seq.Result.I == Recompiled.Result.I &&
                 Seq.MemoryHash == KeepRunning.MemoryHash &&
                 Seq.MemoryHash == Recompiled.MemoryHash,
             "drift: architectural state identical under every plan"))
    return false;
  return check(Recompiled.Subticks < KeepRunning.Subticks &&
                   FreshViolations == 0,
               "drift: recompiling against the fresh profile beats "
               "keeping the stale plan running",
               "keep-running=" + std::to_string(KeepRunning.cycles()) +
                   " recompiled=" + std::to_string(Recompiled.cycles()) +
                   " cycles, violations=" +
                   std::to_string(FreshViolations));
}

int runSelfCheck(const CliOptions &Cli) {
  bool Ok = true;
  Ok &= selfcheckChaosIdentity(Cli);
  Ok &= selfcheckCacheHit(Cli);
  Ok &= selfcheckCacheCorruption(Cli);
  Ok &= selfcheckQuarantine(Cli);
  Ok &= selfcheckBackpressure(Cli);
  Ok &= selfcheckDeadline(Cli);
  Ok &= selfcheckProfileDrift(Cli);
  std::fprintf(stderr, "sptserve: selfcheck %s\n", Ok ? "passed" : "FAILED");
  return Ok ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  enum class Mode { None, SelfCheck, Batch };
  Mode M = Mode::None;
  CliOptions Cli;
  bool WantStats = false;
  ObsContext StatsCtx;

  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    auto next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "sptserve: %s needs a value\n", A.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    uint64_t N = 0;
    double D = 0.0;
    if (A == "--selfcheck")
      M = Mode::SelfCheck;
    else if (A == "--batch")
      M = Mode::Batch;
    else if (A == "--programs") {
      if (!parseUint(next(), N)) {
        std::fprintf(stderr, "sptserve: bad --programs value\n");
        return 2;
      }
      Cli.Programs = N;
    } else if (A == "--corpus")
      Cli.CorpusDir = next();
    else if (A == "--jobs") {
      if (!parseUint(next(), N) || N == 0) {
        std::fprintf(stderr, "sptserve: bad --jobs value\n");
        return 2;
      }
      Cli.Jobs = static_cast<unsigned>(N);
    } else if (A == "--deadline") {
      if (!parseDouble(next(), D) || D < 0.0) {
        std::fprintf(stderr, "sptserve: bad --deadline value\n");
        return 2;
      }
      Cli.Deadline = D;
    } else if (A == "--queue") {
      if (!parseUint(next(), N)) {
        std::fprintf(stderr, "sptserve: bad --queue value\n");
        return 2;
      }
      Cli.Queue = N;
    } else if (A == "--strikes") {
      if (!parseUint(next(), N) || N == 0) {
        std::fprintf(stderr, "sptserve: bad --strikes value\n");
        return 2;
      }
      Cli.Strikes = static_cast<uint32_t>(N);
    } else if (A == "--cache-cap") {
      if (!parseUint(next(), N)) {
        std::fprintf(stderr, "sptserve: bad --cache-cap value\n");
        return 2;
      }
      Cli.CacheCap = N;
    } else if (A == "--chaos") {
      if (!parseDouble(next(), D) || D < 0.0 || D > 1.0) {
        std::fprintf(stderr, "sptserve: bad --chaos value\n");
        return 2;
      }
      Cli.Chaos = D;
    } else if (A == "--seed") {
      if (!parseUint(next(), N)) {
        std::fprintf(stderr, "sptserve: bad --seed value\n");
        return 2;
      }
      Cli.Seed = N;
    } else if (A == "--max-steps") {
      if (!parseUint(next(), N) || N == 0) {
        std::fprintf(stderr, "sptserve: bad --max-steps value\n");
        return 2;
      }
      Cli.MaxSteps = N;
    } else if (A == "--verify")
      Cli.Verify = true;
    else if (A == "--report")
      Cli.ReportPath = next();
    else if (A == "--stats") {
      WantStats = true;
      Cli.Obs = &StatsCtx;
    } else {
      std::fprintf(stderr, "sptserve: unknown argument %s\n", A.c_str());
      usage();
      return 2;
    }
  }

  auto finish = [&](int Rc) {
    if (WantStats)
      std::fputs(renderStatsText(StatsCtx.snapshot()).c_str(), stderr);
    return Rc;
  };

  switch (M) {
  case Mode::None:
    usage();
    return 2;
  case Mode::SelfCheck:
    return finish(runSelfCheck(Cli));
  case Mode::Batch:
    return finish(runBatchMode(Cli));
  }
  return 2;
}

//===- serve/BatchCompileServer.cpp - Hardened batch compilation service ---===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/BatchCompileServer.h"

#include "lang/AstPrinter.h"
#include "lang/Frontend.h"
#include "lang/Parser.h"
#include "profile/DepProfiler.h"
#include "sim/FaultInjector.h"
#include "support/CancelToken.h"
#include "support/Compiler.h"
#include "support/Hash.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

using namespace spt;

const char *spt::serveStateName(ServeState S) {
  switch (S) {
  case ServeState::Completed:
    return "completed";
  case ServeState::Degraded:
    return "degraded";
  case ServeState::Skipped:
    return "skipped";
  case ServeState::Quarantined:
    return "quarantined";
  }
  return "unknown";
}

namespace {

// Out of line: one call per double field, and GCC otherwise inlines the
// formatting into every call site of compilerOptionsFingerprint.
SPT_NOINLINE void appendField(std::string &Out, const char *Name, double V) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%s=%.17g;", Name, V);
  Out += Buf;
}

void appendField(std::string &Out, const char *Name, uint64_t V) {
  Out += Name;
  Out += '=';
  Out += std::to_string(V);
  Out += ';';
}

} // namespace

uint64_t spt::compilerOptionsFingerprint(const SptCompilerOptions &O) {
  // Serialize every report-affecting knob into a canonical string and
  // hash it. Cancel and Observability are excluded on purpose — the
  // determinism contract (renderReportDeterministic) guarantees they
  // cannot change the report, and including them would needlessly split
  // the cache. ProfileArgs are not serialized: the server always
  // compiles with the default empty argument list.
  std::string S;
  appendField(S, "mode", static_cast<uint64_t>(O.Mode));
  S += "entry=" + O.ProfileEntry + ";";
  appendField(S, "seed", O.RngSeed);
  appendField(S, "psteps", O.ProfileMaxSteps);
  appendField(S, "deadline", O.MaxPartitionSeconds);
  appendField(S, "costfrac", O.Selection.CostFraction);
  appendField(S, "prefork", O.Selection.PreForkSizeFraction);
  appendField(S, "minbody", O.Selection.MinBodyWeight);
  appendField(S, "maxbody", O.Selection.MaxBodyWeight);
  appendField(S, "mintrip", O.Selection.MinTripCount);
  appendField(S, "maxvcs", static_cast<uint64_t>(O.Selection.MaxViolationCandidates));
  appendField(S, "maxunroll", static_cast<uint64_t>(O.Selection.MaxUnrollFactor));
  appendField(S, "mingain", O.Selection.MinGainEstimate);
  appendField(S, "fork", O.Machine.ForkOverheadWeight);
  appendField(S, "commit", O.Machine.CommitOverheadWeight);
  appendField(S, "join", O.Machine.JoinSerializationWeight);
  appendField(S, "cores", static_cast<uint64_t>(O.Machine.Cores));
  appendField(S, "svp", static_cast<uint64_t>(O.Enabling.EnableSvp));
  appendField(S, "deps", static_cast<uint64_t>(O.Enabling.EnableDepProfiles));
  appendField(S, "calleff",
              static_cast<uint64_t>(O.Enabling.ModelCallEffectsInCost));
  appendField(S, "svphit", O.Enabling.Svp.MinHitRatio);
  appendField(S, "svpsamples", O.Enabling.Svp.MinSamples);
  appendField(S, "svpprefork", O.Enabling.Svp.PreForkSizeFraction);
  // The measured profile artifact's checksum. A report compiled against
  // one artifact must never be served for a request carrying another (or
  // none): the probabilities, and therefore the chosen partitions, can
  // differ. ProfilePath is provenance only and deliberately excluded.
  appendField(S, "artifact",
              O.Analysis.Profile ? O.Analysis.Profile->Checksum : uint64_t(0));
  return fnv1a(S);
}

std::string ServeBatchReport::renderSummary() const {
  // Counter order is fixed so summaries diff cleanly. The cache block is
  // informational: under concurrent workers, duplicate programs can race
  // past each other's insert, so hit/miss counts are load-dependent —
  // byte-identity comparisons must use the per-outcome Report strings.
  std::string Out;
  Out += "accepted=" + std::to_string(Accepted);
  Out += " rejected_overload=" + std::to_string(RejectedOverload);
  Out += "\ncompleted=" + std::to_string(Completed);
  Out += " degraded=" + std::to_string(Degraded);
  Out += " skipped=" + std::to_string(Skipped);
  Out += " quarantined=" + std::to_string(Quarantined);
  Out += " retried=" + std::to_string(Retried);
  Out += " chaos_faults=" + std::to_string(ChaosFaults);
  Out += "\ncache hits=" + std::to_string(Cache.Hits);
  Out += " misses=" + std::to_string(Cache.Misses);
  Out += " corrupt=" + std::to_string(Cache.Corrupt);
  Out += " insertions=" + std::to_string(Cache.Insertions);
  Out += " evictions=" + std::to_string(Cache.Evictions);
  Out += '\n';
  return Out;
}

BatchCompileServer::BatchCompileServer(const ServeOptions &Opts)
    : Opts(Opts),
      OptionsFingerprint(compilerOptionsFingerprint(Opts.Compiler)),
      Cache(Opts.CacheCapacity),
      Queues(std::max(1u, Opts.Workers)) {
  this->Opts.Workers = std::max(1u, Opts.Workers);
}

BatchCompileServer::~BatchCompileServer() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
}

void BatchCompileServer::start() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!Threads.empty())
    return;
  Stopping = false;
  Threads.reserve(Opts.Workers);
  for (unsigned I = 0; I != Opts.Workers; ++I)
    Threads.emplace_back([this, I] { workerLoop(I); });
}

Status BatchCompileServer::submit(ServeRequest R) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Opts.MaxQueue != 0 && Pending >= Opts.MaxQueue) {
      ++RejectedOverload;
      obsAdd(Opts.Obs, "serve.rejected", 1);
      return Status::error("ServerOverloaded: " + std::to_string(Pending) +
                           " requests pending (limit " +
                           std::to_string(Opts.MaxQueue) + ")");
    }
    ++Pending;
    ++Accepted;
    Queues[NextQueue % Queues.size()].push_back(std::move(R));
    NextQueue = (NextQueue + 1) % static_cast<unsigned>(Queues.size());
  }
  obsAdd(Opts.Obs, "serve.accepted", 1);
  WorkReady.notify_one();
  return Status::ok();
}

void BatchCompileServer::submitOrWait(ServeRequest R) {
  {
    std::unique_lock<std::mutex> Lock(Mu);
    Progress.wait(Lock, [this] {
      return Opts.MaxQueue == 0 || Pending < Opts.MaxQueue;
    });
    ++Pending;
    ++Accepted;
    Queues[NextQueue % Queues.size()].push_back(std::move(R));
    NextQueue = (NextQueue + 1) % static_cast<unsigned>(Queues.size());
  }
  obsAdd(Opts.Obs, "serve.accepted", 1);
  WorkReady.notify_one();
}

bool BatchCompileServer::takeWork(unsigned Me, ServeRequest &Out) {
  // Caller holds Mu. Own queue from the front (FIFO for fairness), then
  // steal from the back of the longest other queue — stealing the
  // newest work keeps the victim's cache-warm older entries local.
  if (!Queues[Me].empty()) {
    Out = std::move(Queues[Me].front());
    Queues[Me].pop_front();
    return true;
  }
  size_t Victim = Queues.size(), Longest = 0;
  for (size_t Q = 0; Q != Queues.size(); ++Q)
    if (Q != Me && Queues[Q].size() > Longest) {
      Longest = Queues[Q].size();
      Victim = Q;
    }
  if (Victim == Queues.size())
    return false;
  Out = std::move(Queues[Victim].back());
  Queues[Victim].pop_back();
  obsAdd(Opts.Obs, "serve.steals", 1);
  return true;
}

void BatchCompileServer::workerLoop(unsigned Me) {
  for (;;) {
    ServeRequest R;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      WorkReady.wait(Lock, [&] {
        if (Stopping)
          return true;
        for (const auto &Q : Queues)
          if (!Q.empty())
            return true;
        return false;
      });
      if (!takeWork(Me, R)) {
        if (Stopping)
          return;
        continue;
      }
    }
    process(R);
  }
}

void BatchCompileServer::process(const ServeRequest &R) {
  ServeOutcome Out;
  try {
    Out = compileRequest(R);
  } catch (const std::exception &E) {
    // Last-resort containment: nothing a request does may take down the
    // worker, and every admitted request must produce an outcome or
    // drain() would wait forever.
    Out.Id = R.Id;
    Out.Name = R.Name;
    Out.State = ServeState::Skipped;
    Out.Error = Status::error(std::string("uncontained exception: ") +
                              E.what());
  } catch (...) {
    Out.Id = R.Id;
    Out.Name = R.Name;
    Out.State = ServeState::Skipped;
    Out.Error = Status::error("uncontained non-standard exception");
  }

  switch (Out.State) {
  case ServeState::Completed:
    obsAdd(Opts.Obs, "serve.completed", 1);
    break;
  case ServeState::Degraded:
    obsAdd(Opts.Obs, "serve.degraded", 1);
    break;
  case ServeState::Skipped:
    obsAdd(Opts.Obs, "serve.skipped", 1);
    break;
  case ServeState::Quarantined:
    obsAdd(Opts.Obs, "serve.quarantined", 1);
    break;
  }
  if (Out.Attempts > 1)
    obsAdd(Opts.Obs, "serve.retried", Out.Attempts - 1);

  {
    std::lock_guard<std::mutex> Lock(Mu);
    Outcomes.push_back(std::move(Out));
    --Pending;
  }
  Progress.notify_all();
}

bool BatchCompileServer::chaosFaults(uint64_t ContentHash,
                                     uint32_t Attempt) const {
  if (Opts.ChaosFaultRate <= 0.0)
    return false;
  // The decision must be a pure function of (seed, program, attempt):
  // thread interleaving must not move faults between requests, or the
  // chaos soak's "non-faulted outputs are byte-identical" check would be
  // meaningless. Mix the identity into a one-shot FaultInjector seed and
  // let the sim layer's seeded PRNG make the call.
  std::string Mix = "chaos;" + std::to_string(Opts.ChaosSeed) + ";" +
                    std::to_string(ContentHash) + ";" +
                    std::to_string(Attempt);
  FaultInjectorOptions FO;
  FO.Seed = fnv1a(Mix);
  FO.ForcedSquashRate = Opts.ChaosFaultRate;
  FaultInjector Injector(FO);
  return Injector.shouldForceSquash();
}

ServeOutcome BatchCompileServer::compileRequest(const ServeRequest &R) {
  ServeOutcome Out;
  Out.Id = R.Id;
  Out.Name = R.Name;
  Out.EffectiveMode = Opts.Compiler.Mode;

  // 1. Canonicalize. Hostile text ends here with a structured skip.
  Parser P(R.Source);
  ProgramAst Ast = P.parseProgram();
  if (!P.errors().empty()) {
    Out.State = ServeState::Skipped;
    Out.Error = Status::error("frontend: " + P.errors().front());
    return Out;
  }
  const std::string Canonical = programToSource(Ast);
  Out.ContentHash = fnv1a(Canonical);

  // 2. Quarantine ledger.
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Strikes.find(Out.ContentHash);
    if (It != Strikes.end() && It->second >= Opts.StrikeLimit) {
      Out.State = ServeState::Quarantined;
      Out.Error = Status::error(
          "quarantined: " + std::to_string(It->second) +
          " failed attempts on this program (strike limit " +
          std::to_string(Opts.StrikeLimit) + ")");
      return Out;
    }
  }

  // 3. Cache probe, under the requested options only.
  const uint64_t CacheKey =
      CompileCache::key(Out.ContentHash, OptionsFingerprint);
  if (Opts.CacheCapacity != 0 && Cache.lookup(CacheKey, Out.Report)) {
    Out.State = ServeState::Completed;
    Out.CacheHit = true;
    obsAdd(Opts.Obs, "serve.cache.hit", 1);
    return Out;
  }
  if (Opts.CacheCapacity != 0)
    obsAdd(Opts.Obs, "serve.cache.miss", 1);

  // 4. The attempt ladder: requested mode, then Basic, then skip.
  std::string LastFailure = "no attempts made";
  const uint32_t MaxAttempts = 2;
  for (uint32_t Attempt = 0; Attempt != MaxAttempts; ++Attempt) {
    ++Out.Attempts;
    const bool BasicRung = Attempt != 0;
    if (chaosFaults(Out.ContentHash, Attempt)) {
      Out.Faulted = true;
      LastFailure = "chaos: injected worker fault (attempt " +
                    std::to_string(Attempt + 1) + ")";
      obsAdd(Opts.Obs, "serve.chaos.injected", 1);
      if (Opts.ChaosCorruptCache && (Out.ContentHash & 63) == 0)
        corruptOneCacheEntry();
      std::lock_guard<std::mutex> Lock(Mu);
      ++Strikes[Out.ContentHash];
      continue;
    }
    try {
      CancelToken Deadline;
      if (Opts.AttemptDeadlineSeconds > 0.0)
        Deadline.armDeadlineAfter(Opts.AttemptDeadlineSeconds);
      SptCompilerOptions O =
          BasicRung ? Opts.Compiler.withMode(CompilationMode::Basic)
                    : Opts.Compiler;
      O.Cancel = &Deadline;

      CompileResult CR = compileSource(Canonical);
      if (!CR.ok()) {
        // Deterministic semantic/verifier failure: retrying cannot help,
        // so skip directly without burning the remaining rungs.
        Out.State = ServeState::Skipped;
        Out.Error = Status::error("frontend: " + CR.Errors.front());
        return Out;
      }
      CompilationReport Report = compileSpt(*CR.M, O);
      if (Report.Cancelled) {
        LastFailure = "deadline of " +
                      std::to_string(Opts.AttemptDeadlineSeconds) +
                      "s expired (attempt " + std::to_string(Attempt + 1) +
                      ", mode " + compilationModeName(O.Mode) + ")";
        obsAdd(Opts.Obs, "serve.deadline.expired", 1);
        std::lock_guard<std::mutex> Lock(Mu);
        ++Strikes[Out.ContentHash];
        continue;
      }

      Out.Report = renderReportDeterministic(Report);
      Out.EffectiveMode = Report.EffectiveMode;
      Out.State = BasicRung ? ServeState::Degraded : ServeState::Completed;
      // Cache only first-rung results: the entry must correspond to the
      // requested options its key encodes. A degraded (Basic-rung)
      // report under the Best-mode key would violate the cache-diff
      // oracle's byte-identity contract.
      if (!BasicRung && Opts.CacheCapacity != 0)
        Cache.insert(CacheKey, Out.Report);
      return Out;
    } catch (const std::exception &E) {
      LastFailure = std::string("attempt ") + std::to_string(Attempt + 1) +
                    " threw: " + E.what();
      std::lock_guard<std::mutex> Lock(Mu);
      ++Strikes[Out.ContentHash];
    }
  }

  Out.State = ServeState::Skipped;
  Out.Error = Status::error("all " + std::to_string(MaxAttempts) +
                            " attempts failed; last: " + LastFailure);
  return Out;
}

ServeBatchReport BatchCompileServer::drain() {
  {
    std::unique_lock<std::mutex> Lock(Mu);
    Progress.wait(Lock, [this] { return Pending == 0; });
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &T : Threads)
    T.join();
  Threads.clear();

  ServeBatchReport Batch;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = false;
    Batch.Outcomes = std::move(Outcomes);
    Outcomes.clear();
    Batch.Accepted = Accepted;
    Batch.RejectedOverload = RejectedOverload;
    Accepted = 0;
    RejectedOverload = 0;
  }
  std::sort(Batch.Outcomes.begin(), Batch.Outcomes.end(),
            [](const ServeOutcome &A, const ServeOutcome &B) {
              return A.Id < B.Id;
            });
  for (const ServeOutcome &O : Batch.Outcomes) {
    switch (O.State) {
    case ServeState::Completed:
      ++Batch.Completed;
      break;
    case ServeState::Degraded:
      ++Batch.Degraded;
      break;
    case ServeState::Skipped:
      ++Batch.Skipped;
      break;
    case ServeState::Quarantined:
      ++Batch.Quarantined;
      break;
    }
    if (O.Attempts > 1)
      Batch.Retried += O.Attempts - 1;
    if (O.Faulted)
      ++Batch.ChaosFaults;
  }
  Batch.Cache = Cache.stats();
  // Flush cache counter deltas to obs here, race-free: no workers run.
  obsAdd(Opts.Obs, "serve.cache.corrupt",
         Batch.Cache.Corrupt - LastFlushedCorrupt);
  LastFlushedCorrupt = Batch.Cache.Corrupt;
  return Batch;
}

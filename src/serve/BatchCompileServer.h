//===- serve/BatchCompileServer.h - Hardened batch compilation service -----===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A batch compilation server: thousands of independent, untrusted SPTc
/// programs in, one structured outcome per program out — with the
/// robustness envelope an offline compiler never needs (docs/serving.md).
///
/// Parallelism is ACROSS compilations, not within one: each worker runs
/// a whole (sequential) compilation and the fleet scales by request count:
/// per-worker deques with round-robin placement and work stealing keep
/// every core busy even when program sizes are skewed.
///
/// The envelope, per request:
///
///  1. Canonicalization. The program is parsed and reprinted through
///     lang/AstPrinter; parse failures are structured skips, and the
///     canonical text's fnv1a hash is the request's content identity for
///     the cache and the quarantine ledger.
///  2. Quarantine check. A program whose hash has accumulated
///     StrikeLimit failed attempts is refused outright (a poison input
///     must not keep burning worker time).
///  3. Cache probe (CompileCache): checksum-verified, LRU, keyed on
///     canonical hash + options fingerprint.
///  4. Attempt ladder. Best(requested mode, per-attempt CancelToken
///     deadline) -> Basic(same deadline) -> structured Status skip.
///     Every attempt is exception-contained; a deadline, fault or throw
///     costs the program one strike and one rung.
///  5. Admission control: the pending queue is bounded; submit() refuses
///     with "ServerOverloaded" instead of queueing unboundedly.
///
/// Chaos testing: ChaosFaultRate arms a seeded fault source inside the
/// workers themselves. Whether attempt A of program H faults is a pure
/// function of (ChaosSeed, H, A) — never of thread interleaving — so a
/// chaos run faults a deterministic subset of requests, every faulted
/// request still resolves through the ladder, and non-faulted requests
/// render byte-identically to a fault-free run (the chaos soak's
/// acceptance check). Chaos can also corrupt cache entries through the
/// same checksum-detection path tests use.
///
/// Everything lands in obs/ counters (serve.accepted, serve.rejected,
/// serve.retried, serve.degraded, serve.quarantined, serve.cache.*) when
/// an ObsContext is supplied.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_SERVE_BATCHCOMPILESERVER_H
#define SPT_SERVE_BATCHCOMPILESERVER_H

#include "driver/SptCompiler.h"
#include "obs/Obs.h"
#include "serve/CompileCache.h"
#include "support/Status.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace spt {

/// Server configuration.
struct ServeOptions {
  /// Worker threads compiling requests (minimum 1).
  unsigned Workers = 1;
  /// Bound on requests admitted but not yet finished; submit() refuses
  /// beyond it. 0 means unbounded.
  size_t MaxQueue = 1024;
  /// Per-ATTEMPT wall-clock deadline, armed on a fresh CancelToken for
  /// each rung of the ladder (so a Basic retry gets a full budget, not
  /// the Best attempt's leftovers). 0 disables deadlines.
  double AttemptDeadlineSeconds = 0.0;
  /// Failed attempts (deadline, chaos fault, exception) a content hash
  /// may accumulate before new requests for it are quarantined.
  uint32_t StrikeLimit = 3;
  /// Compile cache capacity in entries; 0 disables caching.
  size_t CacheCapacity = 4096;
  /// Base options for the first ladder rung; the Basic rung derives from
  /// them via withMode(Basic). Cancel is overwritten with the per-attempt
  /// token.
  SptCompilerOptions Compiler;
  /// P(an attempt faults) under chaos; 0 disables chaos entirely.
  double ChaosFaultRate = 0.0;
  /// Seed for the per-(program, attempt) chaos decision.
  uint64_t ChaosSeed = 0x5eed5eed5eedull;
  /// Also corrupt a random cache entry on ~1/64 of chaos faults,
  /// exercising checksum detection under load.
  bool ChaosCorruptCache = false;
  /// Observability sink; null disables recording.
  ObsContext *Obs = nullptr;
};

/// One unit of work. Ids must be unique within a batch; outcomes sort by
/// them.
struct ServeRequest {
  uint64_t Id = 0;
  std::string Name;
  std::string Source;
};

/// Terminal disposition of one request.
enum class ServeState {
  Completed,   ///< Requested mode succeeded (possibly from cache).
  Degraded,    ///< Requested mode failed; the Basic rung succeeded.
  Skipped,     ///< Every rung failed (or the program did not parse).
  Quarantined, ///< Refused: content hash at/over the strike limit.
};

const char *serveStateName(ServeState S);

/// One request's structured outcome.
struct ServeOutcome {
  uint64_t Id = 0;
  std::string Name;
  ServeState State = ServeState::Completed;
  /// Why there is no report; set exactly when State is Skipped or
  /// Quarantined.
  Status Error;
  /// renderReportDeterministic of the successful attempt (or the cached
  /// copy, which the cache-diff oracle keeps byte-identical); empty when
  /// Error is set.
  std::string Report;
  /// Mode that produced Report (Basic for Degraded outcomes).
  CompilationMode EffectiveMode = CompilationMode::Best;
  bool CacheHit = false;
  /// Ladder rungs actually run (0 for quarantined/cache hits).
  uint32_t Attempts = 0;
  /// Chaos injected at least one fault into this request's attempts.
  bool Faulted = false;
  /// fnv1a of the canonical reprint (0 when the program did not parse).
  uint64_t ContentHash = 0;
};

/// Batch-level rollup returned by drain().
struct ServeBatchReport {
  std::vector<ServeOutcome> Outcomes; ///< Sorted by request Id.
  uint64_t Accepted = 0;
  uint64_t RejectedOverload = 0;
  uint64_t Completed = 0;
  uint64_t Degraded = 0;
  uint64_t Skipped = 0;
  uint64_t Quarantined = 0;
  /// Ladder rungs run beyond the first, summed over requests.
  uint64_t Retried = 0;
  uint64_t ChaosFaults = 0;
  CompileCacheStats Cache;

  /// Deterministic multi-line summary (counter order fixed; no wall
  /// clock), for golden comparisons in tests and the selfcheck.
  std::string renderSummary() const;
};

/// Fingerprint of every report-affecting compiler option, for cache
/// keying. Cancel and Observability are deliberately excluded: the
/// determinism contract says they cannot change the rendered report.
uint64_t compilerOptionsFingerprint(const SptCompilerOptions &Opts);

class BatchCompileServer {
public:
  explicit BatchCompileServer(const ServeOptions &Opts);
  ~BatchCompileServer();

  BatchCompileServer(const BatchCompileServer &) = delete;
  BatchCompileServer &operator=(const BatchCompileServer &) = delete;

  /// Spawns the workers. Idempotent. Tests exercising admission control
  /// submit before start() so the queue fills deterministically.
  void start();

  /// Non-blocking admission. Refuses with "ServerOverloaded" when
  /// MaxQueue requests are already pending; the caller decides whether
  /// to back off, drop, or block via submitOrWait.
  Status submit(ServeRequest R);

  /// Blocking admission: waits for queue room instead of refusing. For
  /// batch drivers that want backpressure, not drops.
  void submitOrWait(ServeRequest R);

  /// Waits until every admitted request has an outcome, stops the
  /// workers, and returns the batch report. The server can be start()ed
  /// and fed again afterwards.
  ServeBatchReport drain();

  /// Test/chaos hook: bit-flip one cached payload (see CompileCache).
  bool corruptOneCacheEntry() { return Cache.corruptOneEntry(); }

  CompileCacheStats cacheStats() const { return Cache.stats(); }

private:
  void workerLoop(unsigned Me);
  bool takeWork(unsigned Me, ServeRequest &Out);
  void process(const ServeRequest &R);
  ServeOutcome compileRequest(const ServeRequest &R);
  /// Pure function of (ChaosSeed, ContentHash, Attempt): does this
  /// attempt fault under chaos?
  bool chaosFaults(uint64_t ContentHash, uint32_t Attempt) const;

  ServeOptions Opts;
  /// compilerOptionsFingerprint(Opts.Compiler): the options are fixed for
  /// the server's lifetime, so every request's cache key shares it.
  uint64_t OptionsFingerprint;
  CompileCache Cache;

  std::mutex Mu;
  std::condition_variable WorkReady; ///< Work queued or stopping.
  std::condition_variable Progress;  ///< Outcome recorded (drain/submitOrWait).
  std::vector<std::deque<ServeRequest>> Queues; ///< One per worker.
  std::vector<std::thread> Threads;
  unsigned NextQueue = 0;   ///< Round-robin placement cursor.
  size_t Pending = 0;       ///< Admitted, no outcome yet.
  bool Stopping = false;
  std::vector<ServeOutcome> Outcomes;
  /// Failed-attempt strikes per content hash (the quarantine ledger).
  std::map<uint64_t, uint32_t> Strikes;
  uint64_t Accepted = 0;
  uint64_t RejectedOverload = 0;
  /// Cache corruption count already flushed to obs (drain() adds deltas
  /// so repeated drains never double-count).
  uint64_t LastFlushedCorrupt = 0;
};

} // namespace spt

#endif // SPT_SERVE_BATCHCOMPILESERVER_H

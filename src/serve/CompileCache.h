//===- serve/CompileCache.h - Checksum-verified LRU compile cache ----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed cache of compilation reports for the batch server.
///
/// Keying: the cache never sees raw request text. The server parses each
/// program and reprints it through lang/AstPrinter, so two textually
/// different but structurally identical programs (whitespace, comments,
/// redundant parens) share one canonical form; the key is
/// fnv1a(canonical source) combined with a fingerprint of every
/// report-affecting compiler option (mode, seeds, selection/machine/
/// enabling knobs — NOT cancellation or observability, which the
/// determinism contract guarantees cannot change the report). The
/// cache-diff oracle in src/testing enforces the keying assumption
/// end-to-end: a warm-cache compile must render byte-identically to a
/// cold one.
///
/// Integrity: each entry stores its payload (the deterministic report
/// rendering) plus an fnv1a checksum taken at insertion. lookup()
/// re-hashes the payload; on mismatch the entry is dropped, the
/// corruption is counted, and the call reports a miss — a corrupt entry
/// is never served. corruptOneEntry() deliberately bit-flips a stored
/// payload so tests and the chaos selfcheck can drive that path.
///
/// Eviction: plain LRU (touch on hit) with a fixed capacity.
///
/// Thread-safety: all public methods lock one mutex, and lookup()
/// verifies the checksum and copies the payload while holding it. On
/// warm traffic that is a real share of a request: over perfbench's
/// serve_warm programs a report averages 2.2 KB, and a lookup (fnv1a over
/// the payload, then the copy) takes about 3.4 us of a 58 us
/// single-worker cache hit, most of the rest being the request's
/// canonicalization. At 4 workers a hit finishes every 18 us or so, so
/// the lock is held about a fifth of the time. Verifying outside the lock
/// gave 3.5-8% more cached requests per second in four alternating
/// serve_warm pairs on a 4-core host; the single lock is kept for now, so
/// that detecting a corrupt entry and erasing it stay one atomic step.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_SERVE_COMPILECACHE_H
#define SPT_SERVE_COMPILECACHE_H

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

namespace spt {

/// Running totals; snapshot with stats().
struct CompileCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  /// Checksum mismatches detected by lookup() (each also counts a miss).
  uint64_t Corrupt = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
};

class CompileCache {
public:
  /// \p Capacity entries; 0 disables the cache (every lookup misses and
  /// insert is a no-op).
  explicit CompileCache(size_t Capacity) : Capacity(Capacity) {}

  /// Combines the canonical-source hash with the options fingerprint into
  /// the final key (order-sensitive mix, stable across platforms).
  static uint64_t key(uint64_t ContentHash, uint64_t OptionsFingerprint);

  /// On hit, copies the payload into \p Out, refreshes recency, and
  /// returns true. A checksum mismatch erases the entry, counts Corrupt,
  /// and returns false like any miss.
  bool lookup(uint64_t Key, std::string &Out);

  /// Inserts or refreshes \p Key -> \p Payload, evicting the LRU entry
  /// when full.
  void insert(uint64_t Key, const std::string &Payload);

  /// Test/chaos hook: flips one bit in the payload of the least recently
  /// used entry (the next eviction victim), leaving its checksum stale.
  /// Returns false when the cache is empty.
  bool corruptOneEntry();

  CompileCacheStats stats() const;
  size_t size() const;
  size_t capacity() const { return Capacity; }

private:
  struct Entry {
    uint64_t Key = 0;
    std::string Payload;
    uint64_t Checksum = 0;
  };

  /// Front = most recent, back = LRU victim.
  std::list<Entry> Lru;
  std::unordered_map<uint64_t, std::list<Entry>::iterator> Index;
  size_t Capacity;
  CompileCacheStats Stats;
  mutable std::mutex Mu;
};

} // namespace spt

#endif // SPT_SERVE_COMPILECACHE_H

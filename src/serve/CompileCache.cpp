//===- serve/CompileCache.cpp - Checksum-verified LRU compile cache --------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/CompileCache.h"

#include "support/Hash.h"

using namespace spt;

uint64_t CompileCache::key(uint64_t ContentHash,
                           uint64_t OptionsFingerprint) {
  // FNV-style mix: absorb the fingerprint into the content hash byte by
  // byte so key(a, b) != key(b, a) and single-bit fingerprint changes
  // diffuse. Stable across platforms like fnv1a itself.
  uint64_t H = ContentHash;
  for (int I = 0; I != 8; ++I) {
    H ^= (OptionsFingerprint >> (I * 8)) & 0xff;
    H *= 0x100000001b3ull;
  }
  return H;
}

bool CompileCache::lookup(uint64_t Key, std::string &Out) {
  std::string Copy;
  uint64_t Checksum;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Index.find(Key);
    if (It == Index.end()) {
      ++Stats.Misses;
      return false;
    }
    Copy = It->second->Payload;
    Checksum = It->second->Checksum;
    Lru.splice(Lru.begin(), Lru, It->second); // Touch: move to MRU.
  }
  if (fnv1a(Copy) == Checksum) {
    Hits.fetch_add(1, std::memory_order_relaxed);
    Out = std::move(Copy);
    return true;
  }
  // Detected corruption: never serve the copy. Drop the entry so the slot
  // heals on the next insert, unless it changed since it was read. An
  // insert that refreshed it stored a payload matching its checksum, so
  // it cannot equal this copy; a lookup that got here first erased it.
  std::lock_guard<std::mutex> Lock(Mu);
  ++Stats.Misses;
  auto It = Index.find(Key);
  if (It != Index.end() && It->second->Checksum == Checksum &&
      It->second->Payload == Copy) {
    ++Stats.Corrupt;
    Lru.erase(It->second);
    Index.erase(It);
  }
  return false;
}

void CompileCache::insert(uint64_t Key, const std::string &Payload) {
  if (Capacity == 0)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    // Refresh in place (same key can race between workers compiling
    // duplicate programs; last writer wins, payloads are identical by
    // the determinism contract).
    It->second->Payload = Payload;
    It->second->Checksum = fnv1a(Payload);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  if (Lru.size() >= Capacity) {
    Index.erase(Lru.back().Key);
    Lru.pop_back();
    ++Stats.Evictions;
  }
  Lru.push_front(Entry{Key, Payload, fnv1a(Payload)});
  Index[Key] = Lru.begin();
  ++Stats.Insertions;
}

bool CompileCache::corruptOneEntry() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Lru.empty())
    return false;
  Entry &Victim = Lru.back();
  if (Victim.Payload.empty())
    Victim.Payload.push_back('\x01'); // Still a checksum mismatch.
  else
    Victim.Payload[Victim.Payload.size() / 2] ^= 0x20;
  return true;
}

CompileCacheStats CompileCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  CompileCacheStats S = Stats;
  S.Hits = Hits.load(std::memory_order_relaxed);
  return S;
}

size_t CompileCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Lru.size();
}

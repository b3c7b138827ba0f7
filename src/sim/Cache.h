//===- sim/Cache.h - Shared cache hierarchy ---------------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative, LRU, write-allocate cache hierarchy shared by the
/// main and speculative cores (the paper's machine shares the memory/cache
/// hierarchy between the cores). Access returns the load-to-use latency in
/// cycles and updates all levels.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_SIM_CACHE_H
#define SPT_SIM_CACHE_H

#include "sim/Machine.h"

#include <cstdint>
#include <vector>

namespace spt {

/// One set-associative level.
class CacheLevel {
public:
  explicit CacheLevel(const CacheLevelConfig &Config);

  /// True when \p Addr hits; the line is touched (LRU) or filled.
  bool accessAndFill(uint64_t Addr);

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

private:
  struct Line {
    uint64_t Tag = ~0ull;
    uint64_t LastUse = 0;
    bool Valid = false;
  };

  CacheLevelConfig Config;
  uint32_t NumSets;
  /// log2 of the line size and of NumSets (both powers of two), so the
  /// index math is two shifts.
  unsigned LineShift;
  unsigned SetShift;
  std::vector<Line> Lines; // NumSets * Ways.
  uint64_t UseClock = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Three levels plus memory.
class CacheHierarchy {
public:
  explicit CacheHierarchy(const MachineConfig &Machine);

  /// Performs a load or store access; returns the latency in cycles.
  uint32_t access(uint64_t Addr);

  const CacheLevel &l1() const { return L1; }
  const CacheLevel &l2() const { return L2; }
  const CacheLevel &l3() const { return L3; }

private:
  CacheLevel L1, L2, L3;
  uint32_t L1Lat, L2Lat, L3Lat, MemLat;
};

} // namespace spt

#endif // SPT_SIM_CACHE_H

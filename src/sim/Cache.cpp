//===- sim/Cache.cpp - Shared cache hierarchy --------------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"

#include <bit>
#include <cassert>
#include <cstddef>

using namespace spt;

namespace {

bool isPowerOfTwo(uint64_t X) { return X != 0 && (X & (X - 1)) == 0; }

} // namespace

CacheLevel::CacheLevel(const CacheLevelConfig &Config) : Config(Config) {
  assert(isPowerOfTwo(Config.LineBytes) && "line size must be a power of 2");
  const uint64_t NumLines = Config.SizeBytes / Config.LineBytes;
  NumSets = static_cast<uint32_t>(NumLines / Config.Ways);
  assert(NumSets > 0 && isPowerOfTwo(NumSets) && "bad cache geometry");
  LineShift = static_cast<unsigned>(std::countr_zero(Config.LineBytes));
  SetShift = static_cast<unsigned>(std::countr_zero(NumSets));
  Lines.assign(static_cast<size_t>(NumSets) * Config.Ways, Line());
}

bool CacheLevel::accessAndFill(uint64_t Addr) {
  const uint64_t LineAddr = Addr >> LineShift;
  const uint32_t Set = static_cast<uint32_t>(LineAddr & (NumSets - 1));
  const uint64_t Tag = LineAddr >> SetShift;
  Line *Base = &Lines[static_cast<size_t>(Set) * Config.Ways];
  ++UseClock;

  for (uint32_t W = 0; W != Config.Ways; ++W) {
    Line &L = Base[W];
    if (L.Valid && L.Tag == Tag) {
      L.LastUse = UseClock;
      ++Hits;
      return true;
    }
  }
  ++Misses;
  // Fill: first invalid way, else the least recently used.
  Line *Victim = nullptr;
  for (uint32_t W = 0; W != Config.Ways && !Victim; ++W)
    if (!Base[W].Valid)
      Victim = &Base[W];
  if (!Victim) {
    Victim = Base;
    for (uint32_t W = 1; W != Config.Ways; ++W)
      if (Base[W].LastUse < Victim->LastUse)
        Victim = &Base[W];
  }
  Victim->Valid = true;
  Victim->Tag = Tag;
  Victim->LastUse = UseClock;
  return false;
}

CacheHierarchy::CacheHierarchy(const MachineConfig &Machine)
    : L1(Machine.L1), L2(Machine.L2), L3(Machine.L3),
      L1Lat(Machine.L1.HitLatencyCycles), L2Lat(Machine.L2.HitLatencyCycles),
      L3Lat(Machine.L3.HitLatencyCycles), MemLat(Machine.MemLatencyCycles) {}

uint32_t CacheHierarchy::access(uint64_t Addr) {
  if (L1.accessAndFill(Addr))
    return L1Lat;
  if (L2.accessAndFill(Addr))
    return L2Lat;
  if (L3.accessAndFill(Addr))
    return L3Lat;
  return MemLat;
}

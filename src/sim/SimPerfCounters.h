//===- sim/SimPerfCounters.h - Simulator implementation counters ----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-simulation perf counters both simulators report. The counters
/// never affect results.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_SIM_SIMPERFCOUNTERS_H
#define SPT_SIM_SIMPERFCOUNTERS_H

#include <cstdint>

namespace spt {

/// Implementation counters, reported per simulation. Not part of the
/// architectural report: differential comparisons exclude them.
struct SimPerfCounters {
  /// Always 0. The simulators once memoized block timing; these two
  /// fields remain because external readers (perfbench's
  /// sim.memo_hit_ratio) still sum them.
  uint64_t MemoHits = 0;
  uint64_t MemoMisses = 0;
  /// Per-buffer-epoch batched violation closures run by the SPT
  /// simulator (one per speculative thread, joined or squashed).
  uint64_t ViolationBatches = 0;
};

} // namespace spt

#endif // SPT_SIM_SIMPERFCOUNTERS_H

//===- sim/SimOptions.h - SPT engine selection and perf counters -----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SPT simulator's engine selection, and the per-simulation perf
/// counters both simulators report. The counters never affect results;
/// the two engines agree byte for byte at Cores=2.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_SIM_SIMOPTIONS_H
#define SPT_SIM_SIMOPTIONS_H

#include <cstdint>

namespace spt {

/// Which SPT engine implementation runs the speculation machinery.
enum class SptSimEngine : uint8_t {
  /// The N-core chained-ghost engine (MachineConfig::Cores speculative
  /// chain). At Cores=2 it is byte-identical — reports, MemoryHash,
  /// every speculation counter — to the retained two-core reference;
  /// the kway-diff oracle and tests/kway_sim_test.cpp enforce this.
  Generalized,
  /// The original one-main-one-spec engine, kept verbatim as the
  /// differential baseline. Ignores MachineConfig::Cores (always 2).
  TwoCoreReference,
};

/// SPT simulator options. The defaults run the generalized engine.
struct SimOptions {
  SptSimEngine Engine = SptSimEngine::Generalized;

  static SimOptions twoCoreReference() {
    SimOptions O;
    O.Engine = SptSimEngine::TwoCoreReference;
    return O;
  }
};

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

#endif // SPT_SIM_SIMOPTIONS_H

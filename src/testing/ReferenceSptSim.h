//===- testing/ReferenceSptSim.h - Two-core reference SPT engine ----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original one-main-one-spec SPT engine, kept only as a test oracle
/// for the N-core chain engine behind runSpt (sim/SptSim.cpp). At
/// MachineConfig::Cores == 2, runSpt must return a result byte-identical
/// to this one in every field except CoreStats and Perf: subticks,
/// instruction counts, architectural state and every per-loop speculation
/// counter. The kway-diff fuzz oracle, tests/kway_sim_test.cpp and
/// bench/fig14_kway check this. The shipped library does not link it.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_TESTING_REFERENCESPTSIM_H
#define SPT_TESTING_REFERENCESPTSIM_H

#include "sim/SptSim.h"

namespace spt {

/// runSpt on the paper's two-core machine, computed by the original
/// engine: the same parameters, but MachineConfig::Cores is ignored (one
/// main and one speculative core) and CoreStats is left empty.
SptSimResult runSptTwoCore(const Module &M, const std::string &FnName,
                           const std::vector<Value> &Args,
                           const std::map<int64_t, SptLoopDesc> &Loops,
                           const MachineConfig &Machine = MachineConfig(),
                           uint64_t MaxSteps = 500000000ull,
                           uint64_t RngSeed = 0x5eed5eed5eedull,
                           FaultInjector *Injector = nullptr,
                           ObsContext *Obs = nullptr);

} // namespace spt

#endif // SPT_TESTING_REFERENCESPTSIM_H

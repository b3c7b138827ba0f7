//===- spt.h - Umbrella header for the SPT framework ---------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one header embedders include. Benches, tools and out-of-tree users
/// get the whole supported surface from `#include "spt.h"`; individual
/// component headers stay includable but are an implementation detail
/// whose layout may shift between PRs.
///
/// The surface comes in two rings:
///
///   Supported API — the spt::Compiler facade, its options/report types,
///   deterministic report rendering, and the observability layer (spans,
///   counters, stats dumps, Chrome trace export + validator).
///
///   Bench/tooling surface — everything the in-tree harnesses also need:
///   the language frontend, interpreter, workload suite, simulators,
///   analysis/cost/partition internals, table/stream helpers and the
///   differential-fuzzing engine. Stable enough for the benches, not an
///   external-compatibility promise.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_SPT_H
#define SPT_SPT_H

// --- Supported API -----------------------------------------------------===//
#include "driver/Compiler.h"    // spt::Compiler facade
#include "driver/SptCompiler.h" // SptCompilerOptions, CompilationReport,
                                // compileSpt, renderReportDeterministic
#include "obs/Json.h"           // json::parse, validateChromeTrace
#include "obs/Obs.h"            // ObsContext, counters, stats dumps
#include "obs/Stats.h"          // RunningStat, GeoMean, Correlation
#include "obs/Tracer.h"         // Tracer, exportChromeTrace
#include "serve/BatchCompileServer.h" // BatchCompileServer, ServeOptions
#include "serve/CompileCache.h"       // checksum-verified LRU compile cache
#include "support/CancelToken.h"      // cooperative cancellation/deadlines

// --- Bench/tooling surface ---------------------------------------------===//
#include "analysis/CallEffects.h"
#include "analysis/Cfg.h"
#include "analysis/DepGraph.h"
#include "analysis/Freq.h"
#include "analysis/LoopInfo.h"
#include "analysis/ProfileData.h"
#include "analysis/oracle/DepOracle.h"
#include "cost/CostModel.h"
#include "interp/Decode.h"
#include "interp/Interp.h"
#include "ir/IR.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "lang/Frontend.h"
#include "lang/ProgramGenerator.h"
#include "partition/Partition.h"
#include "profile/DepProfiler.h"
#include "profile/Profiler.h"
#include "sim/FaultInjector.h"
#include "sim/Machine.h"
#include "sim/SeqSim.h"
#include "sim/SptSim.h"
#include "support/Debug.h"
#include "support/OStream.h"
#include "support/Status.h"
#include "support/Table.h"
#include "testing/Corpus.h"
#include "testing/Fuzzer.h"
#include "testing/Mutator.h"
#include "testing/Oracles.h"
#include "testing/Reducer.h"
#include "transform/Cleanup.h"
#include "transform/Unroll.h"
#include "workloads/Workloads.h"

#endif // SPT_SPT_H

//===- tools/spttrace.cpp - Traced compilation of the workload suite -------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Compiles the workload suite through the spt::Compiler facade with
// observability enabled and writes the two artifacts the layer produces:
//
//   spt_trace.json   Chrome trace_event JSON — load in chrome://tracing
//                    or https://ui.perfetto.dev to see the per-stage and
//                    per-loop span timeline of every compilation.
//   spt_stats.txt    the deterministic stats dump (counters, histogram
//                    buckets, span counts; no wall-clock), byte-identical
//                    across runs.
//
// Validate the trace with tools/tracecheck. Flags:
//
//   --trace=PATH    trace output path (default spt_trace.json)
//   --stats=PATH    stats output path (default spt_stats.txt)
//   --json          write the stats dump as JSON instead of text
//   --workloads=N   compile only the first N workloads
//
//===----------------------------------------------------------------------===//

#include "spt.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

using namespace spt;

int main(int Argc, char **Argv) {
  std::string TracePath = "spt_trace.json";
  std::string StatsPath = "spt_stats.txt";
  bool JsonStats = false;
  size_t MaxWorkloads = SIZE_MAX;
  for (int I = 1; I != Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg.rfind("--trace=", 0) == 0) {
      TracePath = Arg.substr(8);
    } else if (Arg.rfind("--stats=", 0) == 0) {
      StatsPath = Arg.substr(8);
    } else if (Arg == "--json") {
      JsonStats = true;
    } else if (Arg.rfind("--workloads=", 0) == 0) {
      MaxWorkloads = static_cast<size_t>(std::atoll(Arg.c_str() + 12));
    } else {
      std::fprintf(stderr,
                   "spttrace: unknown flag %s (expected --trace=PATH "
                   "--stats=PATH --json --workloads=N)\n",
                   Arg.c_str());
      return 2;
    }
  }

  std::vector<Workload> Suite = allWorkloads();
  if (Suite.size() > MaxWorkloads)
    Suite.resize(MaxWorkloads);

  Compiler C(SptCompilerOptions::best().withTracing());
  for (const Workload &W : Suite) {
    auto M = compileWorkload(W);
    CompilationReport Report = C.compile(*M);
    std::fprintf(stderr, "spttrace: %-12s %zu loops selected%s\n",
                 W.Name.c_str(), Report.numSelected(),
                 Report.Degraded ? " (degraded)" : "");
  }

  const std::string Trace = C.trace();
  std::string TraceErr;
  size_t NumEvents = 0;
  if (!validateChromeTrace(Trace, TraceErr, &NumEvents)) {
    std::fprintf(stderr, "spttrace: generated trace is invalid: %s\n",
                 TraceErr.c_str());
    return 1;
  }

  std::ofstream TraceOut(TracePath);
  TraceOut << Trace;
  if (!TraceOut) {
    std::fprintf(stderr, "spttrace: cannot write %s\n", TracePath.c_str());
    return 1;
  }
  TraceOut.close();

  const StatsSnapshot Snap = C.stats();
  std::ofstream StatsOut(StatsPath);
  StatsOut << (JsonStats ? renderStatsJson(Snap) : renderStatsText(Snap));
  if (!StatsOut) {
    std::fprintf(stderr, "spttrace: cannot write %s\n", StatsPath.c_str());
    return 1;
  }
  StatsOut.close();

  std::fprintf(stderr,
               "spttrace: %zu workloads, %zu trace events -> %s, "
               "%zu counters -> %s\n",
               Suite.size(), NumEvents, TracePath.c_str(),
               Snap.Counters.size(), StatsPath.c_str());
  return 0;
}

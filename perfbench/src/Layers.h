//===- perfbench/src/Layers.h - Per-layer time from a span trace ----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Folds a traced run's spans into per-layer totals. Spans come from two
/// sources that share one ObsContext: the benchmark's own spans around
/// each public call (lang.lower, sim.runSequential, driver.compileSpt,
/// serve.batch, ...) and the spans the pipeline already records
/// (compile, stageA.unroll .. stageC.svp, pass1, pass2, sim.runSpt).
///
/// Per layer:
///   total  wall time inside the layer's spans, counting a span only when
///          no enclosing span on its thread belongs to the same layer;
///   self   span durations minus the time their direct children cover;
///   share  self over the sum of every layer's self time (the traced
///          work; with several threads, their busy time adds up).
///
//===----------------------------------------------------------------------===//

#ifndef SPT_PERFBENCH_LAYERS_H
#define SPT_PERFBENCH_LAYERS_H

#include "Harness.h"

#include "obs/Obs.h"

#include <array>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The repository's modules, in report order; "bench" is the
/// benchmark's own root and glue spans.
inline constexpr std::array<const char *, 9> LayerNames = {
    "lang", "interp", "profile", "driver", "partition",
    "svp",  "sim",    "serve",   "bench"};

/// Layer index of span \p Name (see LayerNames).
size_t layerOf(const std::string &Name);

struct LayerTimes {
  std::array<double, LayerNames.size()> Total{};
  std::array<double, LayerNames.size()> Self{};
  /// Summed duration per span name, with any " detail" suffix dropped
  /// ("pass1.loop main:3" counts as "pass1.loop").
  std::map<std::string, double> BySpan;

  double busy() const;
  double span(const std::string &Name) const;
};

/// Accounts the spans of \p Events that start in [FromNs, ToNs).
LayerTimes accountLayers(const std::vector<spt::Tracer::Event> &Events,
                         uint64_t FromNs = 0, uint64_t ToNs = ~0ull);

/// Prints the layer table and records layer.<name>.{total_s,self_s,share}.
void reportLayers(const LayerTimes &T, Result &R);

using Counts = std::map<std::string, double>;

/// Every counter of \p Obs except those that depend on thread
/// interleaving (work stealing), i.e. the counts one seed must repeat.
Counts deterministicCounts(const spt::ObsContext &Obs);

/// Count \p Name of \p C, 0 when absent.
double countOf(const Counts &C, const std::string &Name);

/// Counts one failure per count that differs between two traced runs of
/// the same seed, naming it.
void checkRepeat(const std::string &What, const Counts &A, const Counts &B,
                 Result &R);

} // namespace perfbench

#endif // SPT_PERFBENCH_LAYERS_H

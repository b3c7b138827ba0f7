//===- driver/Compiler.h - The public compilation facade -----------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `spt::Compiler` is the supported entry point for embedders (benches,
/// tools, tests): options in, CompilationReport out, with an owned
/// observability context that persists across compilations so a batch run
/// (e.g. the ten workloads) accumulates one trace and one stats dump.
///
/// The free function compileSpt() remains available for one-shot use; the
/// facade adds exactly two things on top of it: options storage and
/// observability-context lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_DRIVER_COMPILER_H
#define SPT_DRIVER_COMPILER_H

#include "driver/SptCompiler.h"

#include <memory>
#include <string>

namespace spt {

/// Facade over the two-pass pipeline. Not thread-safe: one Compiler per
/// thread.
class Compiler {
public:
  Compiler() : Compiler(SptCompilerOptions()) {}
  explicit Compiler(const SptCompilerOptions &Opts);
  ~Compiler();

  /// Runs the full two-pass compilation on \p M (mutating it). When
  /// observability is enabled and the options name no external context,
  /// recording goes to this facade's own context, which outlives the call
  /// — compile several modules and trace()/stats() cover all of them.
  CompilationReport compile(Module &M);

  const SptCompilerOptions &options() const { return Opts; }
  SptCompilerOptions &options() { return Opts; }

  /// The facade's observability context (created lazily on first use).
  /// Null only when observability is disabled and never forced via obs().
  ObsContext *obsIfEnabled();

  /// Snapshot of everything recorded so far (empty when disabled).
  StatsSnapshot stats() const;
  /// Chrome trace_event JSON of every span recorded so far ("{}"-empty
  /// trace when disabled). Load in chrome://tracing or Perfetto.
  std::string trace() const;

private:
  SptCompilerOptions Opts;
  std::unique_ptr<ObsContext> OwnedObs;
};

} // namespace spt

#endif // SPT_DRIVER_COMPILER_H

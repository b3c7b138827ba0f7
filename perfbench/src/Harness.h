//===- perfbench/src/Harness.h - Shared benchmark plumbing ----------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the command
/// line, the result record that becomes the final JSON line, timing and
/// order statistics, seed derivation and the process's peak memory.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_PERFBENCH_HARNESS_H
#define SPT_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// The command line: --workload NAME --seed N --seconds S --trace 0|1.
struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
};

/// One invocation's outcome: metrics in emission order, plus the
/// attempted/failed tally of checked operations. Every failure is named.
class Result {
public:
  /// Records metric \p Name. \p Base, when nonempty, names the
  /// denominator of a ratio; it is printed next to the value.
  void metric(const std::string &Name, double Value, const char *Unit,
              const std::string &Base = std::string());

  void attempt(uint64_t N = 1) { Attempted += N; }
  /// Counts one failed operation and names it in the output.
  void fail(const std::string &What);

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// Human-readable metric lines (name, value, unit, ratio base).
  std::string renderText() const;
  /// The final line: {"correct", "attempted", "failed", "metrics"}.
  std::string renderJson() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
    std::string Base;
  };
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Median of \p V (0 when empty).
double median(std::vector<double> V);
/// Nearest-rank percentile \p P in [0, 100] of \p V (0 when empty).
double percentile(std::vector<double> V, double P);
/// Geometric mean of positive \p V (1 when empty).
double geomean(const std::vector<double> &V);
/// Ratio with a zero-safe denominator.
inline double ratio(double Num, double Den) {
  return Den == 0.0 ? 0.0 : Num / Den;
}

/// Peak resident set size of this process, in MB.
double peakRssMb();

/// Derives an independent 64-bit stream value from the workload seed
/// (splitmix64), so nearby seeds give unrelated inputs.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

/// "%.6g"-style formatting for the text tables.
std::string fmt(double V, int Digits = 6);

} // namespace perfbench

#endif // SPT_PERFBENCH_HARNESS_H

//===- obs/Obs.h - Counters, histograms and the observability context ----===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipeline observability layer. An `ObsContext` bundles a span Tracer
/// with a typed counter/histogram registry; every instrumented component
/// (driver stages, PartitionSearch, MisspecCostModel, SptSim, the fuzzer
/// oracles) receives a nullable `ObsContext *` and does nothing when it is
/// null, so the disabled pipeline pays one pointer test per site.
///
/// Determinism contract: counters are additive (or max-merged) integers
/// updated with relaxed atomics, so their totals are independent of thread
/// interleaving — the same compilations yield the same StatsSnapshot
/// however the batch server schedules them. Hot loops do not touch the registry directly; they
/// accumulate plain integers locally and flush once per search / per
/// simulation (see PartitionSearch::run and runSpt). The stats dump
/// deliberately excludes wall-clock durations — those live only in the
/// Chrome trace export — so the text/JSON dumps are byte-reproducible.
///
/// Naming: counter names are dotted lowercase paths, `component.detail`,
/// e.g. "partition.prune.size" or "cost.scratch.commits.cone". See
/// docs/observability.md for the full catalogue.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_OBS_OBS_H
#define SPT_OBS_OBS_H

#include "obs/Tracer.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace spt {

/// A monotonically increasing integer metric. Updates are relaxed atomics:
/// totals are exact and thread-interleaving independent, ordering is not
/// promised (none is needed — counters are only read after the work joins).
class Counter {
public:
  void add(uint64_t Delta) { V.fetch_add(Delta, std::memory_order_relaxed); }
  void inc() { add(1); }
  /// Raises the counter to at least \p X (for high-water marks such as the
  /// undo-trail depth). Max-merge is also interleaving independent.
  void max(uint64_t X) {
    uint64_t Cur = V.load(std::memory_order_relaxed);
    while (Cur < X &&
           !V.compare_exchange_weak(Cur, X, std::memory_order_relaxed))
      ;
  }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// An integer-valued distribution bucketed by powers of two: bucket i
/// counts samples in [2^(i-1), 2^i), bucket 0 counts zeros. Power-of-two
/// buckets keep the histogram deterministic (bucket membership depends
/// only on the sample, never on timing) while still showing shape.
class Histogram {
public:
  static constexpr int NumBuckets = 32;

  void add(uint64_t X) {
    Buckets[bucketFor(X)].fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(X, std::memory_order_relaxed);
  }

  static int bucketFor(uint64_t X) {
    int B = 0;
    while (X > 0 && B < NumBuckets - 1) {
      X >>= 1;
      ++B;
    }
    return B;
  }

  uint64_t bucket(int I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }
  uint64_t count() const {
    uint64_t N = 0;
    for (int I = 0; I < NumBuckets; ++I)
      N += bucket(I);
    return N;
  }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> Sum{0};
};

/// Deterministic snapshot of a registry: sorted name -> value maps plus
/// span occurrence counts. This is what CompilationReport carries and what
/// the text/JSON dumps render; it contains no wall-clock data.
struct StatsSnapshot {
  std::map<std::string, uint64_t> Counters;
  /// name -> (total count, sum, per-bucket counts for nonempty buckets as
  /// (bucket index, count) pairs).
  struct HistogramRow {
    uint64_t Count = 0;
    uint64_t Sum = 0;
    std::vector<std::pair<int, uint64_t>> Buckets;
  };
  std::map<std::string, HistogramRow> Histograms;
  std::map<std::string, uint64_t> SpanCounts;

  bool empty() const {
    return Counters.empty() && Histograms.empty() && SpanCounts.empty();
  }
};

/// Owns the named counters and histograms. Lookup takes a mutex but
/// instrumented hot paths hold the returned Counter* across the whole
/// phase (or accumulate locally and flush once), so the lock is cold.
class Registry {
public:
  /// Returns the counter registered under \p Name, creating it on first
  /// use. The pointer stays valid for the registry's lifetime.
  Counter *counter(const std::string &Name) {
    std::lock_guard<std::mutex> Lock(Mu);
    std::unique_ptr<Counter> &Slot = Counters[Name];
    if (!Slot)
      Slot = std::make_unique<Counter>();
    return Slot.get();
  }

  Histogram *histogram(const std::string &Name) {
    std::lock_guard<std::mutex> Lock(Mu);
    std::unique_ptr<Histogram> &Slot = Histograms[Name];
    if (!Slot)
      Slot = std::make_unique<Histogram>();
    return Slot.get();
  }

  void snapshotInto(StatsSnapshot &Out) const {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &[Name, C] : Counters)
      Out.Counters[Name] = C->value();
    for (const auto &[Name, H] : Histograms) {
      StatsSnapshot::HistogramRow Row;
      Row.Count = H->count();
      Row.Sum = H->sum();
      for (int I = 0; I < Histogram::NumBuckets; ++I)
        if (uint64_t N = H->bucket(I))
          Row.Buckets.emplace_back(I, N);
      Out.Histograms[Name] = std::move(Row);
    }
  }

private:
  mutable std::mutex Mu;
  // std::map keeps snapshot order sorted by name without a second pass.
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

/// The handle threaded through the pipeline. Null pointer == observability
/// disabled; every helper below accepts null and does nothing.
class ObsContext {
public:
  Registry Metrics;
  Tracer Trace;

  StatsSnapshot snapshot() const {
    StatsSnapshot S;
    Metrics.snapshotInto(S);
    S.SpanCounts = Trace.spanCounts();
    return S;
  }
};

/// Null-safe counter add.
inline void obsAdd(ObsContext *Obs, const char *Name, uint64_t Delta) {
  if (Obs && Delta)
    Obs->Metrics.counter(Name)->add(Delta);
}
/// Null-safe counter max-merge.
inline void obsMax(ObsContext *Obs, const char *Name, uint64_t X) {
  if (Obs && X)
    Obs->Metrics.counter(Name)->max(X);
}
/// Null-safe histogram sample.
inline void obsSample(ObsContext *Obs, const char *Name, uint64_t X) {
  if (Obs)
    Obs->Metrics.histogram(Name)->add(X);
}

/// RAII span: opens on construction, records on destruction. Accepts a
/// null context, in which case construction is a pointer test and nothing
/// is recorded.
class ObsSpan {
public:
  ObsSpan(ObsContext *Obs, std::string Name)
      : Obs(Obs), Name(Obs ? std::move(Name) : std::string()),
        StartNs(Obs ? Obs->Trace.nowNs() : 0) {}
  ~ObsSpan() {
    if (Obs)
      Obs->Trace.record(std::move(Name), StartNs);
  }
  ObsSpan(const ObsSpan &) = delete;
  ObsSpan &operator=(const ObsSpan &) = delete;

private:
  ObsContext *Obs;
  std::string Name;
  uint64_t StartNs;
};

/// Renders \p S as a flat, deterministic, human-readable table: one
/// `name value` line per counter, histograms as count/sum plus nonempty
/// buckets, span names with occurrence counts. Byte-identical across runs
/// with the same seed.
std::string renderStatsText(const StatsSnapshot &S);

/// Same content as renderStatsText but as a JSON object with "counters",
/// "histograms" and "spans" members. Deterministic (sorted keys, integers
/// only).
std::string renderStatsJson(const StatsSnapshot &S);

} // namespace spt

#endif // SPT_OBS_OBS_H

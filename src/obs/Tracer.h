//===- obs/Tracer.h - Span-based pipeline tracing ---------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The span collector behind the pipeline observability layer. A span is a
/// named wall-clock interval on one thread; spans opened while another span
/// is live on the same thread nest inside it (RAII guarantees proper
/// nesting per thread, which the Chrome trace_event exporter and its
/// validator rely on).
///
/// Thread safety: spans may begin and end on any thread (batch-server
/// workers sharing one context trace their compilations concurrently);
/// recording takes one short mutex hold per span end. Thread ids are mapped to small
/// dense integers in first-appearance order.
///
/// Cost model: the tracer is only ever reached through an `ObsContext *`
/// that is null when observability is off, so the disabled pipeline pays
/// one pointer test per would-be span and nothing else (see obs/Obs.h's
/// ObsSpan).
///
//===----------------------------------------------------------------------===//

#ifndef SPT_OBS_TRACER_H
#define SPT_OBS_TRACER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace spt {

/// Collects completed spans. One tracer per ObsContext.
class Tracer {
public:
  /// One completed span. Times are nanoseconds since the tracer's own
  /// epoch (construction time), so exported timestamps start near zero.
  struct Event {
    std::string Name;
    uint32_t Tid = 0;
    uint64_t StartNs = 0;
    uint64_t DurNs = 0;
  };

  Tracer() : Epoch(std::chrono::steady_clock::now()) {}

  /// Nanoseconds since the tracer's epoch.
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  /// Records one completed span ending now.
  void record(std::string Name, uint64_t StartNs) {
    const uint64_t EndNs = nowNs();
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counts[Name];
    Events.push_back(Event{std::move(Name), currentTidLocked(),
                           StartNs, EndNs - StartNs});
  }

  /// Snapshot of every recorded span, in recording order.
  std::vector<Event> events() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Events;
  }

  /// Number of distinct threads that recorded spans.
  uint32_t numThreads() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return static_cast<uint32_t>(Tids.size());
  }

  /// Span occurrence counts per name, sorted by name — the deterministic
  /// slice of the trace (durations and thread ids are wall-clock noise;
  /// which spans ran, and how often, is not). record() keeps them:
  /// compileSpt snapshots a shared context after each traced compile, so
  /// recounting every event per snapshot would make a traced batch
  /// quadratic in its length.
  std::map<std::string, uint64_t> spanCounts() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Counts;
  }

private:
  uint32_t currentTidLocked() {
    const std::thread::id Id = std::this_thread::get_id();
    auto It = Tids.find(Id);
    if (It == Tids.end())
      It = Tids.emplace(Id, static_cast<uint32_t>(Tids.size())).first;
    return It->second;
  }

  mutable std::mutex Mu;
  std::vector<Event> Events;
  /// Events per name.
  std::map<std::string, uint64_t> Counts;
  std::map<std::thread::id, uint32_t> Tids;
  std::chrono::steady_clock::time_point Epoch;
};

/// Serializes \p T into Chrome trace_event JSON (complete "X" events),
/// loadable in chrome://tracing and Perfetto. Events are sorted by
/// (tid, start, -duration) so parents precede their children.
std::string exportChromeTrace(const Tracer &T);

} // namespace spt

#endif // SPT_OBS_TRACER_H

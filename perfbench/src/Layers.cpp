//===- perfbench/src/Layers.cpp - Per-layer time from a span trace --------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

using namespace perfbench;
using spt::Tracer;

namespace {

bool startsWith(const std::string &S, const char *Prefix) {
  return S.rfind(Prefix, 0) == 0;
}

size_t indexOf(const char *Layer) {
  for (size_t I = 0; I != LayerNames.size(); ++I)
    if (std::string(LayerNames[I]) == Layer)
      return I;
  return LayerNames.size() - 1;
}

} // namespace

size_t perfbench::layerOf(const std::string &Name) {
  if (startsWith(Name, "lang."))
    return indexOf("lang");
  if (startsWith(Name, "interp."))
    return indexOf("interp");
  if (startsWith(Name, "profile.") || Name == "stageB.profile")
    return indexOf("profile");
  if (Name == "stageC.svp")
    return indexOf("svp");
  // The planner: pass 1 (dependence graphs, cost model, partition search)
  // and pass 2 (global selection, re-partition, transform).
  if (startsWith(Name, "pass1") || Name == "pass2")
    return indexOf("partition");
  if (Name == "compile" || Name == "stageA.unroll" ||
      startsWith(Name, "driver."))
    return indexOf("driver");
  if (startsWith(Name, "sim."))
    return indexOf("sim");
  if (startsWith(Name, "serve."))
    return indexOf("serve");
  return indexOf("bench");
}

double LayerTimes::busy() const {
  double Sum = 0.0;
  for (double S : Self)
    Sum += S;
  return Sum;
}

double LayerTimes::span(const std::string &Name) const {
  auto It = BySpan.find(Name);
  return It == BySpan.end() ? 0.0 : It->second;
}

LayerTimes perfbench::accountLayers(const std::vector<Tracer::Event> &Events,
                                    uint64_t FromNs, uint64_t ToNs) {
  std::vector<const Tracer::Event *> Sorted;
  for (const Tracer::Event &E : Events)
    if (E.StartNs >= FromNs && E.StartNs < ToNs)
      Sorted.push_back(&E);
  // Per thread, parents before their children: by start, longer first.
  std::sort(Sorted.begin(), Sorted.end(),
            [](const Tracer::Event *A, const Tracer::Event *B) {
              return std::make_tuple(A->Tid, A->StartNs, ~A->DurNs) <
                     std::make_tuple(B->Tid, B->StartNs, ~B->DurNs);
            });

  LayerTimes Out;
  struct Open {
    size_t Layer;
    uint64_t EndNs;
    uint64_t DurNs;
    uint64_t ChildNs;
    uint32_t LayersOnPath; ///< Bit per layer open at or above this span.
  };
  std::vector<Open> Stack;
  auto Close = [&] {
    const Open &O = Stack.back();
    Out.Self[O.Layer] += static_cast<double>(O.DurNs - O.ChildNs) * 1e-9;
    Stack.pop_back();
  };

  uint32_t Tid = ~0u;
  for (const Tracer::Event *E : Sorted) {
    if (E->Tid != Tid) {
      while (!Stack.empty())
        Close();
      Tid = E->Tid;
    }
    while (!Stack.empty() && E->StartNs >= Stack.back().EndNs)
      Close();
    const size_t L = layerOf(E->Name);
    const uint32_t Above = Stack.empty() ? 0u : Stack.back().LayersOnPath;
    if (!Stack.empty())
      Stack.back().ChildNs += E->DurNs;
    if (!(Above & (1u << L)))
      Out.Total[L] += static_cast<double>(E->DurNs) * 1e-9;
    Out.BySpan[E->Name.substr(0, E->Name.find(' '))] +=
        static_cast<double>(E->DurNs) * 1e-9;
    Stack.push_back(Open{L, E->StartNs + E->DurNs, E->DurNs, 0,
                         Above | (1u << L)});
  }
  while (!Stack.empty())
    Close();
  return Out;
}

Counts perfbench::deterministicCounts(const spt::ObsContext &Obs) {
  Counts Out;
  for (const auto &[Name, V] : Obs.snapshot().Counters)
    if (Name != "serve.steals")
      Out[Name] = static_cast<double>(V);
  return Out;
}

double perfbench::countOf(const Counts &C, const std::string &Name) {
  auto It = C.find(Name);
  return It == C.end() ? 0.0 : It->second;
}

void perfbench::checkRepeat(const std::string &What, const Counts &A,
                            const Counts &B, Result &R) {
  R.attempt(A.size() + 1);
  const uint64_t Before = R.failed();
  for (const auto &[Name, V] : A) {
    auto It = B.find(Name);
    const double Other = It == B.end() ? 0.0 : It->second;
    if (V != Other)
      R.fail(What + ": " + Name + " did not repeat (" + fmt(V, 17) + " vs " +
             fmt(Other, 17) + ")");
  }
  for (const auto &[Name, V] : B)
    if (!A.count(Name))
      R.fail(What + ": " + Name + " appeared only in the second run");
  if (R.failed() == Before)
    std::printf("  deterministic counts repeated exactly (%zu counts)\n",
                A.size());
}

void perfbench::reportLayers(const LayerTimes &T, Result &R) {
  const double Busy = T.busy();
  std::printf("  %-10s %12s %12s %8s\n", "layer", "total s", "self s",
              "share");
  for (size_t I = 0; I != LayerNames.size(); ++I)
    std::printf("  %-10s %12.6f %12.6f %7.2f%%\n", LayerNames[I], T.Total[I],
                T.Self[I], 100.0 * ratio(T.Self[I], Busy));
  std::printf("  %-10s %12s %12.6f (sum of self times = traced busy time)\n",
              "busy", "", Busy);
  const std::string BusyBase = "traced busy " + fmt(Busy) + " s";
  for (size_t I = 0; I != LayerNames.size(); ++I) {
    const std::string Prefix = std::string("layer.") + LayerNames[I];
    R.metric(Prefix + ".total_s", T.Total[I], "s");
    R.metric(Prefix + ".self_s", T.Self[I], "s");
    R.metric(Prefix + ".share", ratio(T.Self[I], Busy), "ratio", BusyBase);
  }
}

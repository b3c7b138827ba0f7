//===- perfbench/src/Harness.cpp - Shared benchmark plumbing --------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

using namespace perfbench;

void Result::metric(const std::string &Name, double Value, const char *Unit,
                    const std::string &Base) {
  Metrics.push_back(Metric{Name, Value, Unit, Base});
}

void Result::fail(const std::string &What) {
  // Name the first failures; a systematic breakage would otherwise bury
  // the metrics under thousands of identical lines.
  if (++Failed <= 20)
    std::printf("FAILED: %s\n", What.c_str());
}

std::string Result::renderText() const {
  std::string Out;
  for (const Metric &M : Metrics) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "  %-34s %16.6f %-6s", M.Name.c_str(),
                  M.Value, M.Unit);
    Out += Buf;
    if (!M.Base.empty())
      Out += "  (base: " + M.Base + ")";
    Out += "\n";
  }
  return Out;
}

std::string Result::renderJson() const {
  std::string Out = "{\"correct\": ";
  Out += Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    char Buf[64];
    // Non-finite values are not JSON; they never arise from the ratios
    // above (zero-safe), but guard the format anyway.
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Out += I ? ", " : "";
    Out += "\"" + M.Name + "\": {\"value\": " + Buf + ", \"unit\": \"" +
           M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()));
  const size_t Idx = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 1.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double perfbench::peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // Linux: KiB.
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + (Stream + 1) * 0x9e3779b97f4a7c15ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::string perfbench::fmt(double V, int Digits) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*g", Digits, V);
  return Buf;
}

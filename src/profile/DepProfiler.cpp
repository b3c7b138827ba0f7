//===- profile/DepProfiler.cpp - Dependence-profile artifacts -------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/DepProfiler.h"

#include "analysis/Cfg.h"
#include "analysis/LoopInfo.h"
#include "ir/IR.h"
#include "ir/IRPrinter.h"
#include "profile/Profiler.h"
#include "support/Hash.h"
#include "support/OStream.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <string_view>
#include <type_traits>

using namespace spt;

uint64_t spt::moduleReprintHash(const Module &M) {
  StringOStream OS;
  printModule(OS, M);
  return fnv1a(OS.str());
}

//===----------------------------------------------------------------------===//
// Profiling run → artifact
//===----------------------------------------------------------------------===//

StatusOr<DepProfileArtifact>
spt::profileDependenceArtifact(const Module &M, const DepProfilerOptions &O) {
  ProfilerOptions PO;
  PO.CollectEdges = false;
  PO.CollectDeps = true;
  PO.CollectValues = false;
  PO.MaxSteps = O.MaxSteps;
  PO.RngSeed = O.RngSeed;
  PO.Cancel = O.Cancel;

  ProfileBundle B = profileRun(M, O.Entry, O.Args, PO);
  if (!B.Completed)
    return Status::error("dependence profiling failed: " + B.Error);

  DepProfileArtifact A;
  A.ModuleHash = moduleReprintHash(M);
  A.Workload = O.Workload;
  A.Steps = B.Instrs;

  // The raw profile is keyed by (Function*, LoopId); re-derive the loop
  // nest per function to translate into the structural (name, header)
  // identity — and emit in sorted order so the artifact is deterministic
  // regardless of pointer values. The map keeps a function's loops
  // together, so each nest is computed once.
  const Function *NestOf = nullptr;
  LoopNest Nest;
  for (const auto &KV : B.Deps.PerLoop) {
    const Function *F = KV.first.first;
    const uint32_t LoopId = KV.first.second;
    if (F != NestOf) {
      Nest = LoopNest::compute(*F, CfgInfo::compute(*F));
      NestOf = F;
    }
    if (LoopId >= Nest.numLoops())
      continue; // Profile from a stale analysis; drop defensively.
    A.Loops.push_back({F->name(), Nest.loop(LoopId)->Header, KV.second});
  }
  std::sort(A.Loops.begin(), A.Loops.end(),
            [](const DepArtifactLoop &X, const DepArtifactLoop &Y) {
              if (X.Func != Y.Func)
                return X.Func < Y.Func;
              return X.Header < Y.Header;
            });

  // Self-serialize once to pin the checksum.
  const std::string Text = serializeDepProfile(A);
  StatusOr<DepProfileArtifact> Round = parseDepProfile(Text);
  if (!Round)
    return Status::error("dependence profile failed self-verification: " +
                         Round.message());
  return Round;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

std::string hex16(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

/// Everything above the checksum line. Labels with whitespace or
/// newlines would corrupt the line format; sanitize them on the way out
/// (parse never needs to reverse this — the label is provenance only).
std::string payloadOf(const DepProfileArtifact &A) {
  std::string S;
  S += "sptprof 1\n";
  S += "module " + hex16(A.ModuleHash) + "\n";
  std::string Label = A.Workload.empty() ? "-" : A.Workload;
  for (char &C : Label)
    if (C == ' ' || C == '\t' || C == '\n' || C == '\r')
      C = '_';
  S += "workload " + Label + "\n";
  S += "steps " + std::to_string(A.Steps) + "\n";
  for (const DepArtifactLoop &L : A.Loops) {
    const LoopDepProfileData &P = L.Profile;
    S += "loop " + L.Func + " " + std::to_string(L.Header) + " " +
         std::to_string(P.Activations) + " " + std::to_string(P.Iterations) +
         "\n";
    for (const auto &KV : P.StmtExec)
      S += "exec " + std::to_string(KV.first) + " " +
           std::to_string(KV.second) + "\n";
    for (const auto &KV : P.Pairs)
      S += "pair " + std::to_string(KV.first.first) + " " +
           std::to_string(KV.first.second) + " " +
           std::to_string(KV.second.Intra) + " " +
           std::to_string(KV.second.Cross) + " " +
           std::to_string(KV.second.Far) + "\n";
  }
  return S;
}

} // namespace

std::string spt::serializeDepProfile(const DepProfileArtifact &A) {
  std::string S = payloadOf(A);
  const uint64_t Sum = fnv1a(S) ^ A.ModuleHash;
  S += "checksum " + hex16(Sum) + "\n";
  return S;
}

namespace {

/// The fields of one record line, split at single spaces.
std::vector<std::string_view> fieldsOf(std::string_view Line) {
  std::vector<std::string_view> Fields;
  size_t At = 0, Sp;
  while ((Sp = Line.find(' ', At)) != std::string_view::npos) {
    Fields.push_back(Line.substr(At, Sp - At));
    At = Sp + 1;
  }
  Fields.push_back(Line.substr(At));
  return Fields;
}

/// Reads all of \p Field as an unsigned number in \p Base: a sign, an
/// empty field, trailing bytes and overflow are all errors.
template <class T>
bool parseNumber(std::string_view Field, T &Out, int Base = 10) {
  static_assert(std::is_unsigned_v<T>, "from_chars reads a '-' as signed");
  const char *End = Field.data() + Field.size();
  const auto [Ptr, Ec] = std::from_chars(Field.data(), End, Out, Base);
  return Ec == std::errc() && Ptr == End;
}

} // namespace

StatusOr<DepProfileArtifact> spt::parseDepProfile(const std::string &Text) {
  DepProfileArtifact A;
  LoopDepProfileData *Cur = nullptr;
  std::set<std::pair<std::string, BlockId>> Seen;
  size_t ChecksumAt = std::string::npos;
  uint64_t Declared = 0;
  bool SawHeader = false, SawModule = false, SawSteps = false;

  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      return Status::error("dep profile: unterminated final line");
    const std::string_view Line(Text.data() + Pos, Eol - Pos);
    const size_t LineStart = Pos;
    Pos = Eol + 1;
    if (Line.empty())
      return Status::error("dep profile: empty line");

    const std::vector<std::string_view> F = fieldsOf(Line);
    const std::string_view Key = F[0];
    if (Key == "sptprof") {
      unsigned Version = 0;
      if (F.size() != 2 || !parseNumber(F[1], Version) || Version != 1)
        return Status::error("dep profile: unsupported version line '" +
                             std::string(Line) + "'");
      SawHeader = true;
    } else if (Key == "module") {
      if (F.size() != 2 || !parseNumber(F[1], A.ModuleHash, 16))
        return Status::error("dep profile: bad module line");
      SawModule = true;
    } else if (Key == "workload") {
      if (F.size() < 2)
        return Status::error("dep profile: bad workload line");
      A.Workload = Line.substr(Key.size() + 1);
      if (A.Workload == "-")
        A.Workload.clear();
    } else if (Key == "steps") {
      if (F.size() != 2 || !parseNumber(F[1], A.Steps))
        return Status::error("dep profile: bad steps line");
      SawSteps = true;
    } else if (Key == "loop") {
      // The function name is one field: SPTc places no limit on
      // identifier length.
      DepArtifactLoop L;
      if (F.size() != 5 || F[1].empty() || !parseNumber(F[2], L.Header) ||
          !parseNumber(F[3], L.Profile.Activations) ||
          !parseNumber(F[4], L.Profile.Iterations))
        return Status::error("dep profile: bad loop line '" +
                             std::string(Line) + "'");
      L.Func = F[1];
      if (!Seen.insert({L.Func, L.Header}).second)
        return Status::error("dep profile: repeated loop record '" +
                             std::string(Line) + "'");
      A.Loops.push_back(std::move(L));
      Cur = &A.Loops.back().Profile;
    } else if (Key == "exec") {
      uint32_t Stmt = 0;
      uint64_t Count = 0;
      if (!Cur || F.size() != 3 || !parseNumber(F[1], Stmt) ||
          !parseNumber(F[2], Count))
        return Status::error("dep profile: bad exec line '" +
                             std::string(Line) + "'");
      Cur->StmtExec[Stmt] = Count;
    } else if (Key == "pair") {
      uint32_t W = 0, R = 0;
      MemDepCounts C;
      if (!Cur || F.size() != 6 || !parseNumber(F[1], W) ||
          !parseNumber(F[2], R) || !parseNumber(F[3], C.Intra) ||
          !parseNumber(F[4], C.Cross) || !parseNumber(F[5], C.Far))
        return Status::error("dep profile: bad pair line '" +
                             std::string(Line) + "'");
      Cur->Pairs[{W, R}] = C;
    } else if (Key == "checksum") {
      if (F.size() != 2 || !parseNumber(F[1], Declared, 16))
        return Status::error("dep profile: bad checksum line");
      if (Pos != Text.size())
        return Status::error("dep profile: trailing data after checksum");
      ChecksumAt = LineStart;
    } else {
      return Status::error("dep profile: unknown record '" + std::string(Key) +
                           "'");
    }
  }

  if (!SawHeader || !SawModule || !SawSteps)
    return Status::error("dep profile: missing header records");
  if (ChecksumAt == std::string::npos)
    return Status::error("dep profile: missing checksum");

  const uint64_t Actual =
      fnv1a(std::string_view(Text.data(), ChecksumAt)) ^ A.ModuleHash;
  if (Actual != Declared)
    return Status::error("dep profile: checksum mismatch (stored " +
                         hex16(Declared) + ", computed " + hex16(Actual) +
                         ") — corrupted artifact or wrong module");
  A.Checksum = Declared;
  return A;
}

//===----------------------------------------------------------------------===//
// Drift
//===----------------------------------------------------------------------===//

double spt::depProfileDrift(const DepProfileArtifact &A,
                            const DepProfileArtifact &B) {
  // Index both sides by structural loop identity.
  using LoopKey = std::pair<std::string, BlockId>;
  std::map<LoopKey, const LoopDepProfileData *> IA, IB;
  for (const DepArtifactLoop &L : A.Loops)
    IA[{L.Func, L.Header}] = &L.Profile;
  for (const DepArtifactLoop &L : B.Loops)
    IB[{L.Func, L.Header}] = &L.Profile;

  std::set<LoopKey> Keys;
  for (const auto &KV : IA)
    Keys.insert(KV.first);
  for (const auto &KV : IB)
    Keys.insert(KV.first);
  if (Keys.empty())
    return 0.0;

  auto crossRate = [](const LoopDepProfileData *L,
                      std::pair<StmtId, StmtId> Pair) -> double {
    if (!L)
      return 0.0;
    auto It = L->Pairs.find(Pair);
    if (It == L->Pairs.end())
      return 0.0;
    auto ExecIt = L->StmtExec.find(Pair.first);
    const uint64_t WExec =
        ExecIt == L->StmtExec.end() ? 0 : ExecIt->second;
    if (WExec == 0)
      return 0.0;
    const double R =
        static_cast<double>(It->second.Cross) / static_cast<double>(WExec);
    return R > 1.0 ? 1.0 : R;
  };

  // A loop's weight is its cross-iteration conflict mass (the larger of
  // the two sides), not its iteration count: staleness is about conflict
  // *structure* changing, and iteration-weighting would let large
  // conflict-free loops (init sweeps, inner compute loops) dilute a
  // complete reversal in the one loop the speculation decision hinges
  // on. A loop with no cross conflicts on either side carries no weight;
  // when no loop has any, the profiles agree that nothing conflicts and
  // the drift is zero.
  auto crossMass = [](const LoopDepProfileData *L) -> uint64_t {
    uint64_t Mass = 0;
    if (L)
      for (const auto &KV : L->Pairs)
        Mass += KV.second.Cross;
    return Mass;
  };

  double WeightSum = 0.0, Acc = 0.0;
  for (const LoopKey &K : Keys) {
    const LoopDepProfileData *LA = IA.count(K) ? IA[K] : nullptr;
    const LoopDepProfileData *LB = IB.count(K) ? IB[K] : nullptr;
    const uint64_t Mass = std::max(crossMass(LA), crossMass(LB));
    if (Mass == 0)
      continue; // No cross conflicts on either side: no drift signal.
    const double W = static_cast<double>(Mass);
    WeightSum += W;

    // A loop only one side observed is maximal drift for its weight.
    if (!LA || !LB) {
      Acc += W;
      continue;
    }

    std::set<std::pair<StmtId, StmtId>> PairKeys;
    for (const auto &KV : LA->Pairs)
      PairKeys.insert(KV.first);
    for (const auto &KV : LB->Pairs)
      PairKeys.insert(KV.first);

    double D = 0.0;
    for (const auto &P : PairKeys) {
      const double RA = crossRate(LA, P);
      const double RB = crossRate(LB, P);
      D += RA > RB ? RA - RB : RB - RA;
    }
    Acc += W * (D / static_cast<double>(PairKeys.size()));
  }
  return WeightSum <= 0.0 ? 0.0 : Acc / WeightSum;
}

//===- testing/ProfileDump.cpp - Canonical text of a ProfileBundle ---------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "testing/ProfileDump.h"

#include "support/Hash.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <tuple>
#include <vector>

using namespace spt;

namespace {

std::string hex16(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

/// "<index> <name>" for functions of \p M; "? <name>" for a foreign one.
class FuncNames {
public:
  explicit FuncNames(const Module &M) {
    for (uint32_t I = 0; I != M.numFunctions(); ++I)
      Index[M.function(I)] = I;
  }

  /// Sort key: module index, foreign functions last.
  uint64_t order(const Function *F) const {
    auto It = Index.find(F);
    return It == Index.end() ? ~0ull : It->second;
  }

  std::string label(const Function *F) const {
    auto It = Index.find(F);
    return (It == Index.end() ? std::string("?") : std::to_string(It->second)) +
           " " + F->name();
  }

private:
  std::map<const Function *, uint32_t> Index;
};

/// \p Map's keys are (Function *, X); returns its entries sorted by
/// (module index, X) so the order never depends on pointer values.
template <class MapT>
std::vector<const typename MapT::value_type *>
sortedByFunction(const MapT &Map, const FuncNames &Names) {
  std::vector<const typename MapT::value_type *> Out;
  for (const auto &KV : Map)
    Out.push_back(&KV);
  std::sort(Out.begin(), Out.end(), [&](const auto *A, const auto *B) {
    return std::make_tuple(Names.order(A->first.first), A->first.second) <
           std::make_tuple(Names.order(B->first.first), B->first.second);
  });
  return Out;
}

} // namespace

std::set<std::pair<const Function *, StmtId>>
spt::allIntDefinitions(const Module &M) {
  std::set<std::pair<const Function *, StmtId>> Watch;
  for (uint32_t FI = 0; FI != M.numFunctions(); ++FI) {
    const Function *F = M.function(FI);
    for (const auto &BB : *F)
      for (const Instr &I : BB->Instrs)
        if (I.Dst != NoReg && I.Ty == Type::Int)
          Watch.insert({F, I.Id});
  }
  return Watch;
}

std::string spt::dumpProfileBundle(const Module &M, const ProfileBundle &B) {
  const FuncNames Names(M);
  std::string S;
  S += "instrs " + std::to_string(B.Instrs) + "\n";
  S += "result " + std::to_string(B.Result.I) + "\n";
  S += "output " + std::to_string(B.Output.size()) + " " +
       hex16(fnv1a(B.Output)) + "\n";
  S += "completed " + std::to_string(B.Completed ? 1 : 0) + "\n";
  S += "error " + B.Error + "\n";

  std::vector<const std::pair<const Function *const, FunctionEdgeCounts> *>
      Edges;
  for (const auto &KV : B.Edges.PerFunc)
    Edges.push_back(&KV);
  std::sort(Edges.begin(), Edges.end(), [&](const auto *A, const auto *Bp) {
    return Names.order(A->first) < Names.order(Bp->first);
  });
  for (const auto *KV : Edges) {
    const FunctionEdgeCounts &EC = KV->second;
    S += "edges " + Names.label(KV->first) + " " +
         std::to_string(EC.Block.size()) + " " +
         std::to_string(EC.Edge.size()) + "\n";
    for (size_t Blk = 0; Blk < std::max(EC.Block.size(), EC.Edge.size());
         ++Blk) {
      S += " b" + std::to_string(Blk) + " ";
      S += Blk < EC.Block.size() ? std::to_string(EC.Block[Blk]) : "-";
      if (Blk < EC.Edge.size())
        for (uint64_t C : EC.Edge[Blk])
          S += " " + std::to_string(C);
      S += "\n";
    }
  }

  for (const auto *KV : sortedByFunction(B.Deps.PerLoop, Names)) {
    const LoopDepProfileData &D = KV->second;
    S += "loop " + Names.label(KV->first.first) + " " +
         std::to_string(KV->first.second) + " " +
         std::to_string(D.Activations) + " " + std::to_string(D.Iterations) +
         "\n";
    for (const auto &[Stmt, Count] : D.StmtExec)
      S += " exec " + std::to_string(Stmt) + " " + std::to_string(Count) +
           "\n";
    for (const auto &[Key, C] : D.Pairs)
      S += " pair " + std::to_string(Key.first) + " " +
           std::to_string(Key.second) + " " + std::to_string(C.Intra) + " " +
           std::to_string(C.Cross) + " " + std::to_string(C.Far) + "\n";
  }

  for (const auto *KV : sortedByFunction(B.Values.PerStmt, Names)) {
    const StrideStats &St = KV->second;
    S += "value " + Names.label(KV->first.first) + " " +
         std::to_string(KV->first.second) + " " + std::to_string(St.Samples) +
         " " + std::to_string(St.SameValue) + " " +
         std::to_string(St.BestStrideHits) + " " +
         std::to_string(St.BestStride) + "\n";
  }
  return S;
}

std::string spt::diffProfileBundles(const Module &M, const ProfileBundle &A,
                                    const ProfileBundle &B) {
  const std::string DA = dumpProfileBundle(M, A);
  const std::string DB = dumpProfileBundle(M, B);
  if (DA == DB)
    return "";
  size_t Pos = 0;
  while (true) {
    const size_t EA = DA.find('\n', Pos);
    const size_t EB = DB.find('\n', Pos);
    const std::string LA =
        Pos >= DA.size() ? "<end>" : DA.substr(Pos, EA - Pos);
    const std::string LB =
        Pos >= DB.size() ? "<end>" : DB.substr(Pos, EB - Pos);
    if (LA != LB)
      return "first difference: '" + LA + "' vs '" + LB + "'";
    Pos = EA + 1;
  }
}

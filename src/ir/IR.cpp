//===- ir/IR.cpp - Instructions, blocks, functions, modules --------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include "support/Debug.h"

using namespace spt;

const char *spt::typeName(Type Ty) {
  switch (Ty) {
  case Type::Int:
    return "int";
  case Type::Fp:
    return "fp";
  case Type::Void:
    return "void";
  }
  spt_unreachable("unknown type");
}

BasicBlock *Function::addBlock(std::string Label) {
  assert(!External && "external functions have no blocks");
  auto Id = static_cast<BlockId>(Blocks.size());
  Blocks.push_back(std::make_unique<BasicBlock>(Id, std::move(Label)));
  return Blocks.back().get();
}

size_t Function::countInstrs() const {
  size_t N = 0;
  for (const auto &BB : Blocks)
    for (const Instr &I : BB->Instrs)
      if (!isTerminator(I.Op))
        ++N;
  return N;
}

Function *Module::addFunction(std::string Name, Type RetTy,
                              unsigned NumParams, bool External) {
  assert(!findFunction(Name) && "duplicate function name");
  Funcs.push_back(
      std::make_unique<Function>(std::move(Name), RetTy, NumParams, External));
  Funcs.back()->Index = static_cast<uint32_t>(Funcs.size() - 1);
  return Funcs.back().get();
}

uint32_t Module::indexOf(const Function *F) const {
  if (F->index() < Funcs.size() && Funcs[F->index()].get() == F)
    return F->index();
  spt_unreachable("function does not belong to this module");
}

uint32_t Module::addArray(std::string Name, Type ElemTy, uint64_t Size) {
  for (const ArrayDecl &A : Arrays)
    assert(A.Name != Name && "duplicate array name");
  Arrays.push_back(ArrayDecl{std::move(Name), ElemTy, Size});
  return static_cast<uint32_t>(Arrays.size() - 1);
}

Function *Module::findFunction(const std::string &Name) {
  for (auto &F : Funcs)
    if (F->name() == Name)
      return F.get();
  return nullptr;
}

const Function *Module::findFunction(const std::string &Name) const {
  for (const auto &F : Funcs)
    if (F->name() == Name)
      return F.get();
  return nullptr;
}

uint32_t Module::arrayIdOf(const std::string &Name) const {
  for (size_t I = 0; I != Arrays.size(); ++I)
    if (Arrays[I].Name == Name)
      return static_cast<uint32_t>(I);
  spt_unreachable("unknown array name");
}

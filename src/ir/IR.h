//===- ir/IR.h - Instructions, blocks, functions, modules ----------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SPT intermediate representation: a register-based control-flow-graph
/// IR. It stands in for ORC's WHIRL/SSA form in the paper. Key properties
/// the SPT framework relies on:
///
///  - Every instruction carries a *stable statement id* unique within its
///    function. Dependence graphs, partitions and profiles refer to
///    statements by id, so they survive code motion.
///  - Registers are function-local virtual registers. Scalar dataflow is
///    recovered by reaching-definitions analysis (analysis/ReachingDefs.h),
///    which distinguishes intra-iteration from cross-iteration reaching
///    definitions exactly as the paper's dependence graph requires.
///  - Memory is a set of module-level arrays; Load/Store name the array by
///    id, which doubles as the type-based alias class of the access.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_IR_IR_H
#define SPT_IR_IR_H

#include "ir/Opcode.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace spt {

/// A virtual register index, local to a Function.
using Reg = uint32_t;

/// Sentinel for "no register" (e.g. a void call result).
inline constexpr Reg NoReg = ~0u;

/// A basic block index, local to a Function.
using BlockId = uint32_t;

/// Sentinel for "no block".
inline constexpr BlockId NoBlock = ~0u;

/// A stable per-function statement id. Ids survive code motion and are the
/// names by which dependence graphs and partitions refer to statements.
using StmtId = uint32_t;

/// Sentinel for "no statement".
inline constexpr StmtId NoStmt = ~0u;

/// Value types of the IR. Int is 64-bit signed; Fp is IEEE double.
enum class Type : uint8_t { Int, Fp, Void };

/// Returns a printable name for \p Ty.
const char *typeName(Type Ty);

/// A single IR instruction. One definition at most (Dst); operands are
/// registers in Srcs. IntImm is overloaded per opcode: the constant for
/// ConstInt, the array id for Load/Store, the callee function index for
/// Call, and the loop id for SptFork/SptKill.
struct Instr {
  Opcode Op = Opcode::ConstInt;
  Type Ty = Type::Int;
  Reg Dst = NoReg;
  std::vector<Reg> Srcs;
  int64_t IntImm = 0;
  double FpImm = 0.0;
  StmtId Id = NoStmt;

  /// Returns the array id of a Load/Store.
  uint32_t arrayId() const {
    assert((Op == Opcode::Load || Op == Opcode::Store) && "not a memory op");
    return static_cast<uint32_t>(IntImm);
  }

  /// Returns the callee function index of a Call.
  uint32_t calleeIndex() const {
    assert(Op == Opcode::Call && "not a call");
    return static_cast<uint32_t>(IntImm);
  }
};

/// A basic block: straight-line instructions ending in a terminator, plus
/// successor edges (block ids). Predecessors are derivable; analyses that
/// need them compute them via CfgInfo.
class BasicBlock {
public:
  BasicBlock(BlockId Id, std::string Label)
      : Id(Id), Label(std::move(Label)) {}

  BlockId id() const { return Id; }
  const std::string &label() const { return Label; }
  void setLabel(std::string L) { Label = std::move(L); }

  std::vector<Instr> Instrs;
  std::vector<BlockId> Succs;

  /// Returns the terminator, which must exist in a verified function.
  const Instr &terminator() const {
    assert(!Instrs.empty() && isTerminator(Instrs.back().Op) &&
           "block has no terminator");
    return Instrs.back();
  }

  /// Returns true if the block ends in a terminator.
  bool hasTerminator() const {
    return !Instrs.empty() && isTerminator(Instrs.back().Op);
  }

private:
  BlockId Id;
  std::string Label;
};

/// A function: a CFG of basic blocks over a private register file.
/// Parameters occupy registers [0, NumParams). External functions (runtime
/// builtins such as fabs or rnd) have no blocks.
class Function {
public:
  Function(std::string Name, Type RetTy, unsigned NumParams, bool External)
      : Name(std::move(Name)), RetTy(RetTy), NumParams(NumParams),
        External(External), NumRegs(NumParams) {}

  const std::string &name() const { return Name; }
  /// Position in the owning module: Module::function(index()) == this.
  /// Set by Module::addFunction; functions never move or leave a module.
  uint32_t index() const { return Index; }
  Type returnType() const { return RetTy; }
  unsigned numParams() const { return NumParams; }
  bool isExternal() const { return External; }

  /// Declared parameter types; size equals numParams() once populated.
  std::vector<Type> ParamTypes;

  /// Allocates a fresh virtual register.
  Reg newReg() { return NumRegs++; }
  unsigned numRegs() const { return NumRegs; }

  /// Allocates a fresh stable statement id.
  StmtId newStmtId() { return NextStmtId++; }
  StmtId maxStmtId() const { return NextStmtId; }

  /// Creates a new basic block with the given debug label.
  BasicBlock *addBlock(std::string Label);

  BasicBlock *block(BlockId Id) {
    assert(Id < Blocks.size() && "block id out of range");
    return Blocks[Id].get();
  }
  const BasicBlock *block(BlockId Id) const {
    assert(Id < Blocks.size() && "block id out of range");
    return Blocks[Id].get();
  }

  size_t numBlocks() const { return Blocks.size(); }

  /// The entry block is always block 0 in a non-external function.
  BlockId entry() const {
    assert(!Blocks.empty() && "function has no blocks");
    return 0;
  }

  /// Iteration over blocks in id order.
  auto begin() { return Blocks.begin(); }
  auto end() { return Blocks.end(); }
  auto begin() const { return Blocks.begin(); }
  auto end() const { return Blocks.end(); }

  /// Returns the total number of non-terminator instructions, a static
  /// proxy for "loop body size" style measures at function granularity.
  size_t countInstrs() const;

private:
  friend class Module;

  std::string Name;
  uint32_t Index = ~0u;
  Type RetTy;
  unsigned NumParams;
  bool External;
  unsigned NumRegs;
  StmtId NextStmtId = 0;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
};

/// A module-level array. Arrays are the only memory; the array id is also
/// the access's type-based alias class (distinct arrays never alias).
struct ArrayDecl {
  std::string Name;
  Type ElemTy = Type::Int;
  uint64_t Size = 0; // Number of elements.
};

/// A whole program: functions (including external builtins) and arrays.
class Module {
public:
  /// Creates a function and returns it; the module owns it.
  Function *addFunction(std::string Name, Type RetTy, unsigned NumParams,
                        bool External = false);

  /// Declares an array and returns its id.
  uint32_t addArray(std::string Name, Type ElemTy, uint64_t Size);

  Function *function(uint32_t Index) {
    assert(Index < Funcs.size() && "function index out of range");
    return Funcs[Index].get();
  }
  const Function *function(uint32_t Index) const {
    assert(Index < Funcs.size() && "function index out of range");
    return Funcs[Index].get();
  }

  /// Returns the function with \p Name, or null.
  Function *findFunction(const std::string &Name);
  const Function *findFunction(const std::string &Name) const;

  /// Returns the index of \p F, which must belong to this module.
  uint32_t indexOf(const Function *F) const;

  size_t numFunctions() const { return Funcs.size(); }

  const ArrayDecl &array(uint32_t Id) const {
    assert(Id < Arrays.size() && "array id out of range");
    return Arrays[Id];
  }
  size_t numArrays() const { return Arrays.size(); }

  /// Returns the array id for \p Name; asserts it exists.
  uint32_t arrayIdOf(const std::string &Name) const;

private:
  std::vector<std::unique_ptr<Function>> Funcs;
  std::vector<ArrayDecl> Arrays;
};

} // namespace spt

#endif // SPT_IR_IR_H

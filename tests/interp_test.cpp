//===- tests/interp_test.cpp - Interpreter tests -----------------------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/DecodeEngine.h"
#include "interp/Interp.h"
#include "lang/Frontend.h"

#include <gtest/gtest.h>

using namespace spt;

namespace {

int64_t runInt(const std::string &Src, const std::string &Fn,
               std::vector<int64_t> Args = {}) {
  auto M = compileOrDie(Src);
  std::vector<Value> Vals;
  for (int64_t A : Args)
    Vals.push_back(Value::ofInt(A));
  return runFunction(*M, Fn, Vals).Result.I;
}

double runFp(const std::string &Src, const std::string &Fn) {
  auto M = compileOrDie(Src);
  return runFunction(*M, Fn).Result.F;
}

} // namespace

TEST(InterpTest, Arithmetic) {
  EXPECT_EQ(runInt("int f() { return 2 + 3 * 4 - 1; }", "f"), 13);
  EXPECT_EQ(runInt("int f() { return (7 / 2) + (7 % 2); }", "f"), 4);
  EXPECT_EQ(runInt("int f() { return -5 + iabs(-3); }", "f"), -2);
  EXPECT_EQ(runInt("int f() { return (1 << 4) | (255 >> 4); }", "f"), 31);
  EXPECT_EQ(runInt("int f() { return 12 & 10; }", "f"), 8);
  EXPECT_EQ(runInt("int f() { return 12 ^ 10; }", "f"), 6);
  EXPECT_EQ(runInt("int f() { return ~0; }", "f"), -1);
}

TEST(InterpTest, DivisionByZeroYieldsZero) {
  EXPECT_EQ(runInt("int f() { int z; z = 0; return 5 / z; }", "f"), 0);
  EXPECT_EQ(runInt("int f() { int z; z = 0; return 5 % z; }", "f"), 0);
}

TEST(InterpTest, FpArithmetic) {
  EXPECT_DOUBLE_EQ(runFp("fp f() { return 1.5 * 4.0; }", "f"), 6.0);
  EXPECT_DOUBLE_EQ(runFp("fp f() { return fabs(0.0 - 2.5); }", "f"), 2.5);
  EXPECT_DOUBLE_EQ(runFp("fp f() { return sqrt(16.0); }", "f"), 4.0);
  EXPECT_DOUBLE_EQ(runFp("fp f() { fp x; x = 3; return x / 2.0; }", "f"),
                   1.5);
}

TEST(InterpTest, Comparisons) {
  EXPECT_EQ(runInt("int f() { return (1 < 2) + (2 <= 2) + (3 > 4) + "
                   "(4 >= 4) + (5 == 5) + (6 != 6); }",
                   "f"),
            4);
  EXPECT_EQ(runInt("int f() { return (1.5 < 2.5) + (2.5 == 2.5); }", "f"), 2);
}

TEST(InterpTest, ControlFlow) {
  EXPECT_EQ(runInt("int f(int n) { if (n > 0) return 1; else return 2; }",
                   "f", {5}),
            1);
  EXPECT_EQ(runInt("int f(int n) { if (n > 0) return 1; else return 2; }",
                   "f", {-5}),
            2);
  EXPECT_EQ(runInt("int f(int n) { int s; int i;"
                   "  for (i = 0; i < n; i = i + 1) s = s + i;"
                   "  return s; }",
                   "f", {10}),
            45);
  EXPECT_EQ(runInt("int f(int n) { int s; while (n > 0) { s = s + n; "
                   "n = n - 1; } return s; }",
                   "f", {4}),
            10);
  EXPECT_EQ(runInt("int f() { int i; int s; do { s = s + 2; i = i + 1; } "
                   "while (i < 3); return s; }",
                   "f"),
            6);
}

TEST(InterpTest, BreakAndContinue) {
  EXPECT_EQ(runInt("int f() { int s; int i;"
                   "  for (i = 0; i < 100; i = i + 1) {"
                   "    if (i == 5) break;"
                   "    if (i % 2 == 0) continue;"
                   "    s = s + i;"
                   "  } return s; }",
                   "f"),
            4); // 1 + 3
}

TEST(InterpTest, ShortCircuitSkipsSideEffects) {
  // g() stores a flag; && must not call it when lhs is false.
  const char *Src = "int flag[1];\n"
                    "int g() { flag[0] = 1; return 1; }\n"
                    "int f(int a) { int r; r = a && g(); return r * 10 + "
                    "flag[0]; }\n";
  EXPECT_EQ(runInt(Src, "f", {0}), 0);  // Not called.
  EXPECT_EQ(runInt(Src, "f", {1}), 11); // Called.
}

TEST(InterpTest, TernarySelectsLazily) {
  const char *Src = "int flag[1];\n"
                    "int g() { flag[0] = 1; return 7; }\n"
                    "int f(int a) { int r; r = a ? 3 : g(); return r * 10 + "
                    "flag[0]; }\n";
  EXPECT_EQ(runInt(Src, "f", {1}), 30);
  EXPECT_EQ(runInt(Src, "f", {0}), 71);
}

TEST(InterpTest, ControlFlowInsideTernaryBranches) {
  // Each branch value may open blocks of its own (a nested conditional,
  // && or ||); its copy to the result must land where the value ends.
  const char *Src =
      "int f(int a, int b) { return a ? (b ? 1 : 2) : (b ? 3 : 4); }\n"
      "int g(int a, int b) { return a ? (a && b) : (a || b) + 5; }\n"
      "fp h(int a) { return a ? 1 : (a ? 2.5 : 0.5); }\n";
  EXPECT_EQ(runInt(Src, "f", {1, 1}), 1);
  EXPECT_EQ(runInt(Src, "f", {1, 0}), 2);
  EXPECT_EQ(runInt(Src, "f", {0, 1}), 3);
  EXPECT_EQ(runInt(Src, "f", {0, 0}), 4);
  EXPECT_EQ(runInt(Src, "g", {1, 0}), 0);
  EXPECT_EQ(runInt(Src, "g", {1, 7}), 1);
  EXPECT_EQ(runInt(Src, "g", {0, 7}), 6);
  EXPECT_EQ(runInt(Src, "g", {0, 0}), 5);
  auto M = compileOrDie(Src);
  EXPECT_DOUBLE_EQ(runFunction(*M, "h", {Value::ofInt(0)}).Result.F, 0.5);
  EXPECT_DOUBLE_EQ(runFunction(*M, "h", {Value::ofInt(1)}).Result.F, 1.0);
}

TEST(InterpTest, ArraysAndMemory) {
  EXPECT_EQ(runInt("int a[10];\n"
                   "int f() { int i;"
                   "  for (i = 0; i < 10; i = i + 1) a[i] = i * i;"
                   "  return a[7]; }",
                   "f"),
            49);
}

TEST(InterpTest, OutOfBoundsLoadIsZeroStoreIsDropped) {
  EXPECT_EQ(runInt("int a[4];\n"
                   "int f() { a[0] = 9; a[100] = 5; return a[100] + a[0]; }",
                   "f"),
            9);
  EXPECT_EQ(runInt("int a[4];\nint f() { int i; i = 0 - 1; return a[i]; }",
                   "f"),
            0);
}

TEST(InterpTest, FunctionCallsAndRecursion) {
  EXPECT_EQ(runInt("int fib(int n) { if (n < 2) return n; "
                   "return fib(n - 1) + fib(n - 2); }",
                   "fib", {10}),
            55);
  EXPECT_EQ(runInt("int sq(int x) { return x * x; }\n"
                   "int f() { return sq(sq(2)); }",
                   "f"),
            16);
}

TEST(InterpTest, PrintBuiltinsCaptureOutput) {
  auto M = compileOrDie("void main() { print_int(42); print_fp(1.5); }");
  RunOutcome O = runFunction(*M, "main");
  EXPECT_EQ(O.Output, "42\n1.500000\n");
}

TEST(InterpTest, RndIsDeterministic) {
  const char *Src = "int f() { return rnd(1000) * 1000000 + rnd(1000); }";
  const int64_t A = runInt(Src, "f");
  const int64_t B = runInt(Src, "f");
  EXPECT_EQ(A, B);
}

TEST(InterpTest, StepReportsLoadsStoresBranches) {
  auto M = compileOrDie("int a[4];\n"
                        "int f() { a[1] = 3; return a[1]; }");
  Interpreter In(*M);
  In.startCall(M->findFunction("f"), {});
  struct RecordSink {
    bool SawLoad = false, SawStore = false, SawRet = false;
    uint64_t StoreAddr = 0, LoadAddr = 0;
    bool onStep(const StepResult &R) {
      if (R.IsStore) {
        SawStore = true;
        StoreAddr = R.Addr;
      }
      if (R.IsLoad) {
        SawLoad = true;
        LoadAddr = R.Addr;
      }
      if (R.IsReturn)
        SawRet = true;
      return true;
    }
  } S;
  In.runWith(S);
  ASSERT_TRUE(In.done());
  EXPECT_TRUE(S.SawLoad);
  EXPECT_TRUE(S.SawStore);
  EXPECT_TRUE(S.SawRet);
  EXPECT_EQ(S.StoreAddr, S.LoadAddr);
  EXPECT_EQ(In.returnValue().I, 3);
}

TEST(InterpTest, InstrCountMatchesRun) {
  auto M = compileOrDie("int f() { int s; int i;"
                        " for (i = 0; i < 5; i = i + 1) s = s + 1;"
                        " return s; }");
  Interpreter In(*M);
  In.startCall(M->findFunction("f"), {});
  const uint64_t Steps = In.run();
  EXPECT_EQ(Steps, In.instrCount());
  EXPECT_GT(Steps, 20u);
}

TEST(InterpTest, MemHooksInterceptAccesses) {
  struct Buffer : Interpreter::MemHooks {
    std::map<uint64_t, Value> Writes;
    Value onLoad(uint64_t Addr, Value Fallback) override {
      auto It = Writes.find(Addr);
      return It == Writes.end() ? Fallback : It->second;
    }
    bool onStore(uint64_t Addr, Value V) override {
      Writes[Addr] = V;
      return true; // Consume: nothing reaches main memory.
    }
  };
  auto M = compileOrDie("int a[4];\n"
                        "int f() { a[2] = 77; return a[2]; }");
  Interpreter In(*M);
  Buffer Buf;
  In.setMemHooks(&Buf);
  In.startCall(M->findFunction("f"), {});
  In.run();
  EXPECT_EQ(In.returnValue().I, 77);         // Read through the buffer.
  EXPECT_EQ(In.arrayData(0)[2].I, 0);        // Main memory untouched.
  EXPECT_EQ(Buf.Writes.size(), 1u);
}

TEST(InterpTest, ZeroInitializedLocals) {
  EXPECT_EQ(runInt("int f() { int x; return x; }", "f"), 0);
  EXPECT_DOUBLE_EQ(runFp("fp f() { fp x; return x; }", "f"), 0.0);
}

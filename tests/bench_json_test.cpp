//===- tests/bench_json_test.cpp - BENCH_*.json block merge ---------------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
//
// bench::mergeJsonBlock, which the perf_* harnesses use to add their block
// to BENCH_compile.json: it must replace exactly the named top-level
// member, keep every other member byte for byte, create a missing file
// and append a new key.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace spt;

namespace {

std::string tempPath(const std::string &Name) {
  const std::string Path = ::testing::TempDir() + "bench_json_test_" + Name;
  std::remove(Path.c_str());
  return Path;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

TEST(BenchJsonTest, ReplacingTheMiddleBlockKeepsTheLast) {
  const std::string Path = tempPath("middle.json");
  writeFile(Path,
            "{\n  \"workloads\": [{\"name\": \"a\"}, {\"name\": \"b\"}],\n"
            "  \"kway\": {\"rows\": [1, 2], \"note\": \"} ]\"},\n"
            "  \"oracle\": {\"summary\": {\"ok\": true}}\n}\n");
  ASSERT_TRUE(bench::mergeJsonBlock(Path, "kway", "{\"rows\": [3]}"));
  EXPECT_EQ(readFile(Path),
            "{\n  \"workloads\": [{\"name\": \"a\"}, {\"name\": \"b\"}],\n"
            "  \"kway\": {\"rows\": [3]},\n"
            "  \"oracle\": {\"summary\": {\"ok\": true}}\n}\n");
  std::remove(Path.c_str());
}

TEST(BenchJsonTest, MergingIntoAMissingFileCreatesIt) {
  const std::string Path = tempPath("missing.json");
  ASSERT_TRUE(bench::mergeJsonBlock(Path, "interpreter", "{\"rows\": []}"));
  EXPECT_EQ(readFile(Path), "{\n  \"interpreter\": {\"rows\": []}\n}\n");
  std::remove(Path.c_str());
}

TEST(BenchJsonTest, MergingANewKeyAppendsIt) {
  const std::string Path = tempPath("append.json");
  writeFile(Path, "{\n  \"total\": {\"seq_seconds\": 1.5},\n"
                  "  \"count\": 3\n}\n");
  ASSERT_TRUE(bench::mergeJsonBlock(Path, "oracle", "{\"ok\": false}"));
  EXPECT_EQ(readFile(Path), "{\n  \"total\": {\"seq_seconds\": 1.5},\n"
                            "  \"count\": 3,\n"
                            "  \"oracle\": {\"ok\": false}\n}\n");
  std::remove(Path.c_str());
}

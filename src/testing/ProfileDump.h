//===- testing/ProfileDump.h - Canonical text of a ProfileBundle -----------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A canonical, pointer-free text rendering of everything one profiling
/// run returns, so two bundles can be compared field for field (the
/// profile tests and the profile-diff oracle) and pinned as goldens
/// (tests/profile_golden_test.cpp). Functions are named by module index
/// and name, loops by (function, loop id), and every map prints in key
/// order, so the text depends only on what was measured.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_TESTING_PROFILEDUMP_H
#define SPT_TESTING_PROFILEDUMP_H

#include "profile/Profiler.h"

#include <set>
#include <string>
#include <utility>

namespace spt {

/// A ProfilerOptions::ValueWatch list with every int-defining statement of
/// every function of \p M: the widest value-profiling configuration.
std::set<std::pair<const Function *, StmtId>>
allIntDefinitions(const Module &M);

/// Renders every field of \p B: instruction count, result, output (length
/// and fnv1a), completion and error, every function's block and edge
/// counts, every loop's activations, iterations, statement executions and
/// dependence pairs, and every value-profiled statement's stride stats.
std::string dumpProfileBundle(const Module &M, const ProfileBundle &B);

/// "" when \p A and \p B agree in every field; otherwise the first line
/// where their dumps differ, labelled with both sides.
std::string diffProfileBundles(const Module &M, const ProfileBundle &A,
                               const ProfileBundle &B);

} // namespace spt

#endif // SPT_TESTING_PROFILEDUMP_H

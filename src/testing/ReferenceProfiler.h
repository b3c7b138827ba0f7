//===- testing/ReferenceProfiler.h - Map-based reference profiler ---------===//
//
// Part of the SPT framework (PLDI 2004 reproduction). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original map-and-tag-vector implementation of profileRun, kept only
/// as a test oracle for the flat profiler in profile/Profiler.cpp. It
/// takes the same options and must return a field-equal ProfileBundle
/// (testing/ProfileDump.h compares them): the profile-diff fuzz oracle and
/// tests/profile_test.cpp check this. The shipped library does not link
/// it.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_TESTING_REFERENCEPROFILER_H
#define SPT_TESTING_REFERENCEPROFILER_H

#include "profile/Profiler.h"

namespace spt {

/// profileRun, computed the slow way: one heap-allocated tag per live loop
/// activation per store, std::map lookups on every access.
ProfileBundle referenceProfileRun(const Module &M, const std::string &FnName,
                                  const std::vector<Value> &Args = {},
                                  const ProfilerOptions &Opts =
                                      ProfilerOptions());

} // namespace spt

#endif // SPT_TESTING_REFERENCEPROFILER_H

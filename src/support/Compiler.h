//===- support/Compiler.h - Inlining and branch-hint macros ---------------===//
//
// Part of the SPT framework, a reproduction of "A Cost-Driven Compilation
// Framework for Speculative Parallelization of Sequential Programs"
// (PLDI 2004). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Portable spellings of the few compiler hints the hot paths use. The
/// interpreter's decoded engine is instantiated with each executor's own
/// step sink, and these macros keep that sink's per-instruction handler
/// inlined into every dispatch handler while its rare paths (calls,
/// returns, the SPT fork/join state machine) stay out of line.
///
//===----------------------------------------------------------------------===//

#ifndef SPT_SUPPORT_COMPILER_H
#define SPT_SUPPORT_COMPILER_H

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SPT_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SPT_SANITIZED 1
#endif
#endif

#if (defined(__GNUC__) || defined(__clang__)) && !defined(SPT_SANITIZED)
/// Forces inlining of a function (use on definitions).
#define SPT_ALWAYS_INLINE inline __attribute__((always_inline))
/// Forces inlining of a lambda's call operator; goes after the parameter
/// list: [&](int X) SPT_LAMBDA_INLINE { ... }.
#define SPT_LAMBDA_INLINE __attribute__((always_inline))
#else
// Sanitizer builds check memory safety, not speed. Instrumented, every
// sink forced into every handler makes one engine instantiation take
// minutes to compile, so there the compiler decides what to inline.
#define SPT_ALWAYS_INLINE inline
#define SPT_LAMBDA_INLINE
#endif

#if defined(__GNUC__) || defined(__clang__)
/// Keeps a rarely taken path out of its callers.
#define SPT_NOINLINE __attribute__((noinline))
#define SPT_LIKELY(X) __builtin_expect(!!(X), 1)
#define SPT_UNLIKELY(X) __builtin_expect(!!(X), 0)
#else
#define SPT_NOINLINE
#define SPT_LIKELY(X) (X)
#define SPT_UNLIKELY(X) (X)
#endif

#endif // SPT_SUPPORT_COMPILER_H

// Clang Thread Safety Analysis annotations (no-ops on other compilers).
//
// The runtime's locking protocols — the ThreadPool job epoch and error
// slot, the incumbent swap — are documented *to the compiler* with these
// macros, so a Clang build with -Wthread-safety (CI's static-analysis job
// compiles with -Werror=thread-safety) proves at compile time that every
// access to a guarded member happens with the right lock held, and that
// every acquire has a matching release.  See
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html for the model.
//
// Conventions:
//  * Lock types are declared LAZYMC_CAPABILITY("mutex"/"spinlock"); RAII
//    guards are LAZYMC_SCOPED_CAPABILITY.
//  * Data protected by a lock is declared LAZYMC_GUARDED_BY(lock); the
//    analysis then rejects unlocked reads and writes.
//  * Functions that expect the caller to hold a lock are declared
//    LAZYMC_REQUIRES(lock).
//  * Per-element lock arrays (LazyGraph's per-vertex locks) are beyond
//    the analysis' aliasing model; those critical sections still use the
//    annotated guard types, but their guarded data carries no
//    GUARDED_BY.  The double-checked flag publication that layers on
//    top is checked dynamically instead (TSan job + checked build).
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define LAZYMC_TSA(x) __attribute__((x))
#else
#define LAZYMC_TSA(x)  // no-op outside Clang
#endif

/// Declares a type to be a lock ("capability" in analysis terms).
#define LAZYMC_CAPABILITY(x) LAZYMC_TSA(capability(x))

/// Declares an RAII type that acquires in its constructor and releases in
/// its destructor.
#define LAZYMC_SCOPED_CAPABILITY LAZYMC_TSA(scoped_lockable)

/// Data member readable/writable only with `x` held.
#define LAZYMC_GUARDED_BY(x) LAZYMC_TSA(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x`.
#define LAZYMC_PT_GUARDED_BY(x) LAZYMC_TSA(pt_guarded_by(x))

/// Function that acquires the capability (and does not release it).
#define LAZYMC_ACQUIRE(...) LAZYMC_TSA(acquire_capability(__VA_ARGS__))

/// Function that releases the capability.
#define LAZYMC_RELEASE(...) LAZYMC_TSA(release_capability(__VA_ARGS__))

/// Function that acquires the capability when it returns `ret`.
#define LAZYMC_TRY_ACQUIRE(ret, ...) \
  LAZYMC_TSA(try_acquire_capability(ret __VA_OPT__(, ) __VA_ARGS__))

/// Function whose caller must hold the capability.
#define LAZYMC_REQUIRES(...) LAZYMC_TSA(requires_capability(__VA_ARGS__))

/// Function whose caller must NOT hold the capability (deadlock guard).
#define LAZYMC_EXCLUDES(...) LAZYMC_TSA(locks_excluded(__VA_ARGS__))

/// Function returning a reference to the capability guarding its result.
#define LAZYMC_RETURN_CAPABILITY(x) LAZYMC_TSA(lock_returned(x))

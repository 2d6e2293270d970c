#ifndef DBTF_COMMON_THREAD_ANNOTATIONS_H_
#define DBTF_COMMON_THREAD_ANNOTATIONS_H_

/// Clang thread-safety annotations (a.k.a. capability analysis), compiled to
/// no-ops on other compilers. Annotating the locking discipline makes it
/// machine-checked: the build adds `-Wthread-safety -Werror=thread-safety`
/// under Clang, so accessing a DBTF_GUARDED_BY member without holding its
/// mutex is a compile error, not a latent race.
///
/// The annotations attach to `dbtf::Mutex` / `dbtf::MutexLock`
/// (common/mutex.h); a plain `std::mutex` carries no capability and cannot
/// be checked, which is why the analyzer's naked-mutex rule
/// (tools/dbtf_analyze.py) rejects mutex members without a GUARDED_BY on the
/// data they protect.
///
/// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__)
#define DBTF_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define DBTF_THREAD_ANNOTATION_(x)
#endif

/// Declares a type to be a capability ("mutex") the analysis tracks.
#define DBTF_CAPABILITY(x) DBTF_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type that acquires a capability at construction and
/// releases it at destruction.
#define DBTF_SCOPED_CAPABILITY DBTF_THREAD_ANNOTATION_(scoped_lockable)

/// The annotated member may only be accessed while holding the given mutex.
#define DBTF_GUARDED_BY(x) DBTF_THREAD_ANNOTATION_(guarded_by(x))

/// The data *pointed to* by the annotated pointer member is guarded.
#define DBTF_PT_GUARDED_BY(x) DBTF_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The annotated function may only be called while holding the mutex(es).
#define DBTF_REQUIRES(...) \
  DBTF_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// The annotated function acquires the mutex(es) and does not release them.
#define DBTF_ACQUIRE(...) \
  DBTF_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The annotated function releases the mutex(es) the caller holds.
#define DBTF_RELEASE(...) \
  DBTF_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The annotated function must NOT be called while holding the mutex(es)
/// (deadlock prevention for self-locking public entry points).
#define DBTF_EXCLUDES(...) DBTF_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Tells the analysis to assume the capability is held from here on. Used
/// inside lambdas (condition-variable predicates) the analysis inspects as
/// free functions even though the enclosing scope holds the lock.
#define DBTF_ASSERT_CAPABILITY(x) \
  DBTF_THREAD_ANNOTATION_(assert_capability(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the discipline cannot be expressed.
#define DBTF_NO_THREAD_SAFETY_ANALYSIS \
  DBTF_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // DBTF_COMMON_THREAD_ANNOTATIONS_H_

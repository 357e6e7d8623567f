// Portable Clang Thread Safety annotations plus the annotated locking
// primitives the whole codebase uses.
//
// Clang's -Wthread-safety analysis turns the locking discipline that
// used to live in comments into compile errors: every shared field says
// which mutex guards it (WTAM_GUARDED_BY), every function that expects a
// lock held says so (WTAM_REQUIRES), and the analysis proves each access
// happens under the right lock. Under GCC (or any compiler without the
// attributes) every macro expands to nothing, so the annotations are
// free documentation there.
//
// libstdc++'s std::mutex carries no capability attributes, so the
// analysis cannot see through it. The wrappers below (common::Mutex,
// common::MutexLock, common::CondVar) mirror the reference
// implementation in Clang's Thread Safety Analysis documentation and are
// the only locking primitives library code should use — tools/wtam_lint.py
// rejects raw std::mutex / std::condition_variable members outside this
// header.
//
// Locking discipline (the house rules the annotations enforce):
//   * Every mutex-protected field is declared WTAM_GUARDED_BY(its_mutex);
//     a class that declares a Mutex member must annotate what it guards.
//   * Lock scopes are expressed with MutexLock (never manual
//     lock()/unlock() pairs) so the analysis — and the reader — sees the
//     critical section as a block.
//   * Condition waits go through CondVar::wait/wait_for, which are
//     annotated WTAM_REQUIRES(mutex): the wait atomically releases and
//     reacquires, so from the caller's point of view the lock is held at
//     every observation point. Wait predicates are written as inline
//     `while` loops in the annotated scope, not as lambdas, because the
//     analysis does not propagate capabilities into lambda bodies.
//   * Multi-field reads (stats snapshots, counter pairs) happen inside
//     one critical section per protection domain — never field-by-field —
//     so observers get consistent snapshots, not torn ones.
//   * Lock ordering: leaf mutexes only. No code path in this repo
//     acquires two annotated mutexes at once; ResultCache's
//     cache-then-flight hand-offs take them in disjoint critical
//     sections, as documented at the site.

#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

// Attribute detection: Clang exposes thread-safety attributes through
// __has_attribute; everything else compiles the macros away.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define WTAM_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef WTAM_THREAD_ANNOTATION
#define WTAM_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Marks a type as a lockable capability ("mutex" names it in warnings).
#define WTAM_CAPABILITY(x) WTAM_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose lifetime equals a critical section.
#define WTAM_SCOPED_CAPABILITY WTAM_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read/written with the given mutex held.
#define WTAM_GUARDED_BY(x) WTAM_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field whose *pointee* is protected by the given mutex.
#define WTAM_PT_GUARDED_BY(x) WTAM_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the mutex(es) to be held on entry (and exit).
#define WTAM_REQUIRES(...) \
  WTAM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the mutex(es); they must not already be held.
#define WTAM_ACQUIRE(...) \
  WTAM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the mutex(es); they must be held on entry.
#define WTAM_RELEASE(...) \
  WTAM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the mutex iff it returns the given value.
#define WTAM_TRY_ACQUIRE(...) \
  WTAM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the mutex(es) (deadlock-prevention assertion).
#define WTAM_EXCLUDES(...) WTAM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Documents required relative acquisition order between mutexes.
#define WTAM_ACQUIRED_BEFORE(...) \
  WTAM_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define WTAM_ACQUIRED_AFTER(...) \
  WTAM_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define WTAM_RETURN_CAPABILITY(x) WTAM_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code the analysis cannot model; every use must carry
/// a comment saying why the access is nonetheless safe.
#define WTAM_NO_THREAD_SAFETY_ANALYSIS \
  WTAM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace wtam::common {

/// std::mutex with capability attributes so -Wthread-safety can track
/// it. Same cost, same semantics; the analysis is compile-time only.
class WTAM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() WTAM_ACQUIRE() { mutex_.lock(); }
  void unlock() WTAM_RELEASE() { mutex_.unlock(); }
  [[nodiscard]] bool try_lock() WTAM_TRY_ACQUIRE(true) {
    return mutex_.try_lock();
  }

 private:
  friend class CondVar;
  std::mutex mutex_;
};

/// RAII critical section over a Mutex (the std::lock_guard shape, made
/// visible to the analysis as a scoped capability).
class WTAM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) WTAM_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() WTAM_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable paired with common::Mutex. wait()/wait_for() are
/// annotated WTAM_REQUIRES(mutex): the wait releases and reacquires
/// atomically, so callers hold the lock at every point they can observe —
/// the analysis treats the critical section as unbroken, which is exactly
/// the invariant predicates rely on. Callers loop on their predicate
/// inline:
///
///   MutexLock lock(mutex_);
///   while (!ready_) cv_.wait(mutex_);   // ready_ is WTAM_GUARDED_BY(mutex_)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (spurious wakeups possible — loop on the
  /// predicate). The caller's critical section logically continues.
  void wait(Mutex& mutex) WTAM_REQUIRES(mutex) WTAM_NO_THREAD_SAFETY_ANALYSIS {
    // Safe despite the suppression: the underlying wait releases
    // mutex.mutex_ only while blocked and has reacquired it by return,
    // so the REQUIRES contract holds at every observable point.
    std::unique_lock<std::mutex> inner(mutex.mutex_, std::adopt_lock);
    cv_.wait(inner);
    inner.release();  // ownership stays with the caller's scope
  }

  /// Timed wait; returns false on timeout, true when notified. Same
  /// held-throughout contract as wait().
  template <class Rep, class Period>
  bool wait_for(Mutex& mutex, const std::chrono::duration<Rep, Period>& d)
      WTAM_REQUIRES(mutex) WTAM_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> inner(mutex.mutex_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(inner, d);
    inner.release();
    return status == std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace wtam::common

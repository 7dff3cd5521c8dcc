// Capability-annotated synchronization layer. Every lock in the codebase
// goes through this header — raw std::mutex / std::condition_variable /
// std::lock_guard are banned outside it (enforced by nyx_lint, rule
// raw-sync) — so the threading model in DESIGN.md §8/§9 is machine-checked:
// the NYX_GUARDED_BY / NYX_REQUIRES / ... macros expand to Clang
// `thread_safety` attributes (no-ops elsewhere). CI builds src/ with
// -Wthread-safety -Werror=thread-safety, so an unannotated access to a
// guarded field or a call to a NYX_REQUIRES method without the lock is a
// compile error.
//
// Two kinds of mutex exist: log output's and each telemetry registry's. Both
// are leaves: no code path takes one while it holds another, so there is no
// lock order to check at run time. The per-exec hot path takes no lock.

#ifndef SRC_COMMON_SYNC_H_
#define SRC_COMMON_SYNC_H_

#include <atomic>
#include <cstddef>
#include <mutex>
#include <new>
#include <thread>

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros (https://clang.llvm.org/docs/
// ThreadSafetyAnalysis.html). GCC and MSVC compile them away.

#if defined(__clang__)
#define NYX_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define NYX_THREAD_ANNOTATION(x)
#endif

// On types: this class is a lockable capability.
#define NYX_CAPABILITY(x) NYX_THREAD_ANNOTATION(capability(x))
// On types: RAII object that acquires in its ctor, releases in its dtor.
#define NYX_SCOPED_CAPABILITY NYX_THREAD_ANNOTATION(scoped_lockable)
// On data members: reads/writes require holding the named capability.
#define NYX_GUARDED_BY(x) NYX_THREAD_ANNOTATION(guarded_by(x))
// On functions: caller must hold the capability on entry (and keeps it).
#define NYX_REQUIRES(...) NYX_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
// On functions: acquires the capability; caller must not already hold it.
#define NYX_ACQUIRE(...) NYX_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
// On functions: releases the capability; caller must hold it on entry.
#define NYX_RELEASE(...) NYX_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
// On functions: caller must NOT hold the capability (deadlock guard for
// public entry points of classes with an internal lock).
#define NYX_EXCLUDES(...) NYX_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

namespace nyx {

// ---------------------------------------------------------------------------
// Cache-line geometry for padding shared atomics (false-sharing fixes).
// Wrapped so the GCC ABI-stability warning fires nowhere else.

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
#endif
#if defined(__cpp_lib_hardware_interference_size)
inline constexpr size_t kCacheLineSize = std::hardware_destructive_interference_size;
#else
inline constexpr size_t kCacheLineSize = 64;
#endif
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// ---------------------------------------------------------------------------
// Annotated mutex. Lock and Unlock are private: a MutexLock scope is the only
// way to hold one, so a release without a matching acquisition cannot be
// written.
class NYX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

 private:
  friend class MutexLock;

  void Lock() NYX_ACQUIRE() { mu_.lock(); }
  void Unlock() NYX_RELEASE() { mu_.unlock(); }

  std::mutex mu_;
};

// RAII scoped acquisition.
class NYX_SCOPED_CAPABILITY MutexLock {
 public:
  // Acquires through the parameter (not the member alias) so the static
  // analysis can match the capability expression to the caller's mutex.
  explicit MutexLock(Mutex& mu) NYX_ACQUIRE(mu) : mu_(mu) { mu.Lock(); }
  ~MutexLock() NYX_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// ---------------------------------------------------------------------------
// Debug-build affinity check for worker-owned objects (Corpus, CoverageMap:
// DESIGN.md §8.1 says they run start-to-finish on one thread — this makes
// that a checked invariant instead of a comment). Attaches to the first
// thread that calls CalledOnValidThread(); copies/moves detach, because a
// copied object starts a fresh ownership claim.
class ThreadChecker {
 public:
  ThreadChecker() = default;
  ThreadChecker(const ThreadChecker&) {}
  ThreadChecker& operator=(const ThreadChecker&) { return *this; }

  // True when called on the attached thread (attaching if none yet).
  bool CalledOnValidThread() const {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};
    if (owner_.compare_exchange_strong(expected, self, std::memory_order_relaxed)) {
      return true;
    }
    return expected == self;
  }

  // Releases the claim so ownership can hand over to another thread.
  void Detach() { owner_.store(std::thread::id{}, std::memory_order_relaxed); }

 private:
  mutable std::atomic<std::thread::id> owner_{};
};

}  // namespace nyx

#endif  // SRC_COMMON_SYNC_H_

// Synchronization layer: annotated mutex/condvar wrappers plus a
// debug-build lock-rank checker.
//
// Every lock in the repo goes through this header — raw std::mutex /
// std::lock_guard / std::condition_variable are banned by the
// `raw-std-mutex` lint rule everywhere else. The wrappers buy two
// things the std primitives cannot:
//
//  * Clang thread-safety capability analysis. util::Mutex carries
//    CAPABILITY("mutex"); fields annotate which mutex guards them with
//    QS_GUARDED_BY and lock-held helpers declare QS_REQUIRES. A clang
//    build with -Werror=thread-safety (the `clang-tsa` preset) then
//    rejects any access to a guarded field without its lock at compile
//    time. Under GCC every annotation expands to nothing.
//
//  * A lock-rank (lock hierarchy) deadlock checker. Each Mutex is
//    constructed with a LockRank and a name; when QUICSAND_LOCK_RANK is
//    defined (debug/tsan/asan presets) every acquire verifies the new
//    rank is strictly greater than every rank already held by this
//    thread and aborts with both lock names otherwise. Release builds
//    compile the bookkeeping out of the lock/unlock inline paths.
//
// Picking a rank for a new mutex: see DESIGN.md "Lock discipline". In
// short — if the lock is ever held while acquiring another, it must sit
// strictly below that lock in the table; locks that never nest get a
// leaf rank (>= 900).
#pragma once

#include <chrono>
#include <condition_variable>  // the one blessed include; see raw-std-mutex
#include <mutex>

// ---------------------------------------------------------------------
// Thread-safety annotation macros (no-op outside clang).
// ---------------------------------------------------------------------

#if defined(__clang__)
#define QS_THREAD_ANNOTATION(...) __attribute__((__VA_ARGS__))
#else
#define QS_THREAD_ANNOTATION(...)
#endif

/// Marks a class as a lockable capability (mutex-like).
#define QS_CAPABILITY(x) QS_THREAD_ANNOTATION(capability(x))
/// Marks a class as an RAII scope that holds a capability.
#define QS_SCOPED_CAPABILITY QS_THREAD_ANNOTATION(scoped_lockable)
/// Field access requires holding the given mutex.
#define QS_GUARDED_BY(x) QS_THREAD_ANNOTATION(guarded_by(x))
/// Pointee access requires holding the given mutex.
#define QS_PT_GUARDED_BY(x) QS_THREAD_ANNOTATION(pt_guarded_by(x))
/// Caller must hold the listed mutexes (lock-held helper functions).
#define QS_REQUIRES(...) QS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the listed mutexes (or `this` when empty).
#define QS_ACQUIRE(...) QS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the listed mutexes (or `this` when empty).
#define QS_RELEASE(...) QS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the mutex when it returns the given value.
#define QS_TRY_ACQUIRE(...) \
  QS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Caller must NOT hold the listed mutexes (deadlock documentation).
#define QS_EXCLUDES(...) QS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Runtime-checked assertion that the capability is held.
#define QS_ASSERT_CAPABILITY(x) QS_THREAD_ANNOTATION(assert_capability(x))
/// Function returns a reference to the given mutex.
#define QS_RETURN_CAPABILITY(x) QS_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: disable the analysis inside one function.
#define QS_NO_THREAD_SAFETY_ANALYSIS \
  QS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace quicsand::util {

// ---------------------------------------------------------------------
// Lock ranks.
// ---------------------------------------------------------------------

/// The repo's lock hierarchy. A thread may only acquire a mutex whose
/// rank is strictly greater than every rank it already holds, so any
/// cycle (the precondition of a deadlock) trips the checker on the
/// first out-of-order acquire, on any schedule that reaches it.
///
/// Chains (a lower lock is held while the higher one is acquired):
///   kOnlineAlert -> kEventLog -> kEventSubscription
///     (ShardedOnlineDetector serializes its callbacks; a callback
///      emits into the EventLog; emit pushes to each subscriber ring)
///   kSamplerLifecycle -> kSamplerState
///     (Sampler::start/stop serialize on the lifecycle lock, then touch
///      the state lock the run loop waits on)
/// Everything >= 900 is a leaf: never held across another acquire.
enum class LockRank : int {
  kOnlineAlert = 100,
  kEventLog = 200,
  kEventSubscription = 300,
  kSamplerLifecycle = 400,
  kSamplerState = 410,
  kThreadPool = 900,
  kPipelineInflight = 910,
  kPipelineBatchPool = 920,
  kMetrics = 930,
  kTracer = 940,
  kHealth = 950,
  kTsdb = 960,
};

namespace lock_rank {

/// Record that this thread is acquiring (rank, name); aborts with both
/// lock names if `rank` is not strictly above everything already held.
/// Always compiled (tiny, cold); call sites are gated on
/// QUICSAND_LOCK_RANK so release builds pay nothing.
void note_acquire(const void* addr, int rank, const char* name) noexcept;
/// Remove the held-lock entry recorded by note_acquire. Tolerates a
/// missing entry so binaries mixing checked and unchecked translation
/// units never abort on release.
void note_release(const void* addr) noexcept;
/// Number of lock-rank entries the calling thread currently holds
/// (checked acquires only); test hook.
[[nodiscard]] int held_count() noexcept;

}  // namespace lock_rank

#if defined(QUICSAND_LOCK_RANK)
#define QS_LOCK_RANK_ACQUIRE(mutex) \
  ::quicsand::util::lock_rank::note_acquire((mutex), (mutex)->rank_value(), \
                                            (mutex)->name())
#define QS_LOCK_RANK_RELEASE(mutex) \
  ::quicsand::util::lock_rank::note_release((mutex))
#else
#define QS_LOCK_RANK_ACQUIRE(mutex) ((void)0)
#define QS_LOCK_RANK_RELEASE(mutex) ((void)0)
#endif

// ---------------------------------------------------------------------
// Mutex.
// ---------------------------------------------------------------------

/// std::mutex carrying a capability annotation, a rank and a name.
/// Prefer LockGuard/UniqueLock over calling lock()/unlock() directly.
///
/// The three primitive bodies wrap an unannotated std::mutex the
/// analysis cannot see, so they carry QS_NO_THREAD_SAFETY_ANALYSIS —
/// the standard escape hatch for implementing a capability. Callers are
/// still checked against the QS_ACQUIRE/QS_RELEASE declarations.
class QS_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name) noexcept
      : rank_(static_cast<int>(rank)), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() QS_ACQUIRE() QS_NO_THREAD_SAFETY_ANALYSIS {
    QS_LOCK_RANK_ACQUIRE(this);
    raw_.lock();
  }
  void unlock() QS_RELEASE() QS_NO_THREAD_SAFETY_ANALYSIS {
    QS_LOCK_RANK_RELEASE(this);
    raw_.unlock();
  }
  [[nodiscard]] bool try_lock()
      QS_TRY_ACQUIRE(true) QS_NO_THREAD_SAFETY_ANALYSIS {
    if (!raw_.try_lock()) return false;
    // Even a non-blocking acquire must respect the hierarchy: the
    // discipline is about where a lock *may* be taken, not whether this
    // particular attempt could have deadlocked.
    QS_LOCK_RANK_ACQUIRE(this);
    return true;
  }

  [[nodiscard]] const char* name() const noexcept { return name_; }
  [[nodiscard]] int rank_value() const noexcept { return rank_; }

 private:
  friend class CondVar;

  std::mutex raw_;
  int rank_;
  const char* name_;
};

// ---------------------------------------------------------------------
// Scoped holders.
// ---------------------------------------------------------------------

/// RAII lock for the common "hold for the whole scope" case.
class QS_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) QS_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() QS_RELEASE() { mutex_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// RAII lock that can be released early, re-acquired, and waited on via
/// CondVar. The rank entry stays in place across a CondVar wait: the
/// thread is blocked for the whole gap, so it cannot acquire out of
/// order while the mutex is internally dropped.
class QS_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) QS_ACQUIRE(mutex) : mutex_(&mutex) {
    mutex_->lock();
    owns_ = true;
  }
  ~UniqueLock() QS_RELEASE() {
    if (owns_) mutex_->unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() QS_ACQUIRE() {
    mutex_->lock();
    owns_ = true;
  }
  void unlock() QS_RELEASE() {
    mutex_->unlock();
    owns_ = false;
  }
  [[nodiscard]] bool owns_lock() const noexcept { return owns_; }

 private:
  friend class CondVar;

  Mutex* mutex_;
  bool owns_ = false;
};

// ---------------------------------------------------------------------
// Condition variable.
// ---------------------------------------------------------------------

/// Condition variable over util::Mutex via UniqueLock.
///
/// No predicate overloads on purpose: clang analyzes a predicate lambda
/// at its definition site, where it cannot see that the lock is held,
/// so every wait is written as an explicit loop at the call site:
///
///   util::UniqueLock lock(mutex_);
///   while (!condition_) cv_.wait(lock);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { raw_.notify_one(); }
  void notify_all() noexcept { raw_.notify_all(); }

  void wait(UniqueLock& lock) {
    auto adopted = adopt(lock);
    raw_.wait(adopted);
    adopted.release();
  }

  template <class Rep, class Period>
  std::cv_status wait_for(UniqueLock& lock,
                          const std::chrono::duration<Rep, Period>& d) {
    auto adopted = adopt(lock);
    const auto status = raw_.wait_for(adopted, d);
    adopted.release();
    return status;
  }

  template <class Clock, class Duration>
  std::cv_status wait_until(
      UniqueLock& lock, const std::chrono::time_point<Clock, Duration>& tp) {
    auto adopted = adopt(lock);
    const auto status = raw_.wait_until(adopted, tp);
    adopted.release();
    return status;
  }

 private:
  /// Borrow the caller's held mutex as a std::unique_lock so the std
  /// condition variable can drop and re-take it; release() afterwards
  /// hands ownership straight back to the UniqueLock. The lock-rank
  /// entry stays in place across the wait — the thread is blocked for
  /// the whole gap, so it cannot acquire out of order meanwhile.
  static std::unique_lock<std::mutex> adopt(UniqueLock& lock) {
    return std::unique_lock<std::mutex>(lock.mutex_->raw_, std::adopt_lock);
  }

  std::condition_variable raw_;
};

}  // namespace quicsand::util

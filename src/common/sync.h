#ifndef NEBULA_COMMON_SYNC_H_
#define NEBULA_COMMON_SYNC_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/lock_rank.h"

/// Annotated synchronization primitives — the only place in Nebula that
/// may name a std:: mutex type (tools/nebula_lint enforces this).
///
/// Every class here carries Clang Thread Safety Analysis attributes, so a
/// Clang build with -DNEBULA_ANALYZE=ON (-Werror=thread-safety) turns lock
/// discipline into a compile-time contract: reading a GUARDED_BY field
/// without holding its mutex, or calling a REQUIRES method unlocked, fails
/// the build instead of waiting for a TSan interleaving to catch it. On
/// GCC/MSVC the attributes expand to nothing and the wrappers are
/// zero-cost shims over the std primitives.
///
/// Usage pattern (see DESIGN.md "Static analysis & lock discipline"):
///
///   class Worklist {
///    public:
///     void Push(Item item) {
///       MutexLock lock(mutex_);
///       items_.push_back(std::move(item));
///     }
///    private:
///     Mutex mutex_;
///     std::vector<Item> items_ GUARDED_BY(mutex_);
///   };

// ---------------------------------------------------------------------------
// Attribute macros (the canonical set from the Clang TSA documentation).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define NEBULA_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define NEBULA_THREAD_ANNOTATION_(x)  // no-op on GCC/MSVC
#endif

#define CAPABILITY(x) NEBULA_THREAD_ANNOTATION_(capability(x))
#define SCOPED_CAPABILITY NEBULA_THREAD_ANNOTATION_(scoped_lockable)
#define GUARDED_BY(x) NEBULA_THREAD_ANNOTATION_(guarded_by(x))
#define PT_GUARDED_BY(x) NEBULA_THREAD_ANNOTATION_(pt_guarded_by(x))
#define REQUIRES(...) \
  NEBULA_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  NEBULA_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) \
  NEBULA_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  NEBULA_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  NEBULA_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  NEBULA_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  NEBULA_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  NEBULA_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  NEBULA_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) NEBULA_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) NEBULA_THREAD_ANNOTATION_(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  NEBULA_THREAD_ANNOTATION_(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) NEBULA_THREAD_ANNOTATION_(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  NEBULA_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace nebula {

// ---------------------------------------------------------------------------
// Lock-rank check (DESIGN.md §9), compiled into every build.
// ---------------------------------------------------------------------------

/// Each thread keeps a fixed array of the ranks it holds. A blocking
/// acquire of a ranked mutex must carry a tier STRICTLY greater than the
/// innermost held rank; otherwise the check prints the held chain and the
/// rank being acquired to stderr and aborts — before blocking, so a
/// would-be ABBA deadlock or a re-lock of the same mutex fails on the
/// first wrong-order acquire instead of hanging when the interleaving
/// finally fires. Unranked mutexes never reach these functions.
namespace lock_rank_check {

/// Blocking acquire: checks `rank` against the innermost held rank, then
/// pushes it.
void OnAcquire(const LockRank& rank);

/// Successful try-acquire: pushes `rank` unchecked. A non-blocking
/// acquire cannot close a deadlock cycle, so try-lock is the sanctioned
/// out-of-order escape hatch; later blocking acquires are checked
/// against it.
void OnTryAcquired(const LockRank& rank);

/// Release: removes the innermost entry of `rank` (releases need not be
/// LIFO).
void OnRelease(const LockRank& rank);

}  // namespace lock_rank_check

// ---------------------------------------------------------------------------
// Exclusive mutex.
// ---------------------------------------------------------------------------

/// Annotated exclusive mutex. Prefer the RAII `MutexLock`; the manual
/// Lock/Unlock pair exists for the rare hand-over-hand or adopt cases.
///
/// Construct every member/global mutex with its rank from
/// common/lock_rank.h (enforced by nebula_lint's [lock-rank-missing]):
/// the rank places the mutex in the global acquisition order, which
/// lock_rank_check validates on every acquire. The default constructor
/// exists for rank-exempt locals and tests.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(const LockRank& rank) : rank_(&rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    if (rank_ != nullptr) lock_rank_check::OnAcquire(*rank_);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    if (rank_ != nullptr) lock_rank_check::OnRelease(*rank_);
    mu_.unlock();
  }
  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (rank_ != nullptr) lock_rank_check::OnTryAcquired(*rank_);
    return true;
  }

  /// Documents (to the analysis and the reader) that the calling context
  /// holds this mutex even though the acquisition is not visible locally.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

  /// This mutex's rank in the acquisition order; nullptr when unranked.
  const LockRank* rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const LockRank* rank_ = nullptr;
};

/// RAII exclusive lock over `Mutex`.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// ---------------------------------------------------------------------------
// Reader/writer mutex.
// ---------------------------------------------------------------------------

/// Annotated shared (reader/writer) mutex over std::shared_mutex.
/// Ranked exactly like `Mutex`; shared and exclusive acquisition are
/// checked identically (a reader can deadlock a writer just as well as
/// another writer, and a recursive read lock can deadlock behind a
/// queued writer).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(const LockRank& rank) : rank_(&rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    if (rank_ != nullptr) lock_rank_check::OnAcquire(*rank_);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    if (rank_ != nullptr) lock_rank_check::OnRelease(*rank_);
    mu_.unlock();
  }
  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (rank_ != nullptr) lock_rank_check::OnTryAcquired(*rank_);
    return true;
  }

  void LockShared() ACQUIRE_SHARED() {
    if (rank_ != nullptr) lock_rank_check::OnAcquire(*rank_);
    mu_.lock_shared();
  }
  void UnlockShared() RELEASE_SHARED() {
    if (rank_ != nullptr) lock_rank_check::OnRelease(*rank_);
    mu_.unlock_shared();
  }
  bool TryLockShared() TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    if (rank_ != nullptr) lock_rank_check::OnTryAcquired(*rank_);
    return true;
  }

  void AssertHeld() const ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() const ASSERT_SHARED_CAPABILITY(this) {}

  /// This mutex's rank in the acquisition order; nullptr when unranked.
  const LockRank* rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const LockRank* rank_ = nullptr;
};

/// RAII exclusive (writer) lock over `SharedMutex`.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock over `SharedMutex`.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() RELEASE() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// ---------------------------------------------------------------------------
// Condition variable.
// ---------------------------------------------------------------------------

/// Condition variable bound to `nebula::Mutex`.
///
/// Wait() atomically releases and reacquires the mutex inside (via the
/// std::adopt_lock / release() bridge), which the static analysis cannot
/// see — the REQUIRES annotation states the caller-visible contract: the
/// mutex is held on entry and on return. Prefer the explicit while-loop
/// form over predicate lambdas: the analysis checks guarded reads in plain
/// loop bodies, but a lambda is analyzed as a separate unannotated
/// function.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. The caller must hold `mu`.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still owns the mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace nebula

#endif  // NEBULA_COMMON_SYNC_H_

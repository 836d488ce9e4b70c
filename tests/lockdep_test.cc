// The lock-rank check inside nebula::Mutex / SharedMutex (common/sync.h):
// a blocking acquire whose tier is not strictly above the innermost held
// rank aborts with the held chain — inversions, equal tiers, re-locking
// the same mutex, and reader acquires alike. Try-lock is admitted out of
// order but still checked against; unranked mutexes are skipped; releases
// need not be LIFO. The check is compiled into every build, so these run
// in the default suite.

#include <gtest/gtest.h>

#include "common/lock_rank.h"
#include "common/sync.h"

namespace nebula {
namespace {

// Every mutex below is a function-local static: TSan orders mutexes by
// address and never forgets a stack mutex, so locals reused across tests
// would look like one mutex taken in both orders.

/// A deliberate second acquire of a held mutex, which the thread-safety
/// analysis would (rightly) reject at compile time; the test needs it to
/// reach the runtime check.
void LockAgain(Mutex& mu) NO_THREAD_SAFETY_ANALYSIS { mu.Lock(); }

TEST(LockRankCheckTest, InOrderNestingIsAdmitted) {
  static Mutex build(kLockRankStorageIndexBuild);   // tier 50
  static Mutex pool(kLockRankCommonPool);           // tier 70
  static SharedMutex metrics(kLockRankObsMetrics);  // tier 120
  for (int round = 0; round < 2; ++round) {  // the second finds none held
    MutexLock outer(build);
    MutexLock middle(pool);
    ReaderMutexLock inner(metrics);
  }
}

TEST(LockRankCheckTest, OutOfOrderTryLockIsAdmitted) {
  static Mutex build(kLockRankStorageIndexBuild);    // tier 50
  static Mutex manager(kLockRankDurabilityManager);  // tier 60
  static Mutex pool(kLockRankCommonPool);            // tier 70
  MutexLock outer(pool);
  // Non-blocking, so it cannot close a deadlock cycle: admitted below
  // the held tier, and it becomes the innermost rank — a nested acquire
  // above it passes (the death test below covers one beneath it).
  if (!build.TryLock()) FAIL() << "uncontended TryLock failed";
  {
    MutexLock nested(manager);
  }
  build.Unlock();
}

TEST(LockRankCheckTest, UnrankedMutexesAreSkipped) {
  static Mutex ranked(kLockRankCommonPool);
  static Mutex metrics(kLockRankObsMetrics);
  static Mutex unranked_inner;
  static SharedMutex unranked_shared;
  // A separate instance for the other nesting, so TSan's own
  // lock-order detector sees no cycle within this test.
  static Mutex unranked_outer;
  {
    MutexLock outer(ranked);
    MutexLock inner(unranked_inner);
    ReaderMutexLock reader(unranked_shared);
    MutexLock innermost(metrics);  // checked against common.pool only
  }
  {
    MutexLock outer(unranked_outer);
    MutexLock inner(ranked);
  }
}

TEST(LockRankCheckTest, NonLifoReleaseRemovesTheReleasedRank) {
  static Mutex build(kLockRankStorageIndexBuild);  // tier 50
  static Mutex pool(kLockRankCommonPool);          // tier 70
  static Mutex metrics(kLockRankObsMetrics);       // tier 120
  build.Lock();
  pool.Lock();
  build.Unlock();  // outer released first
  metrics.Lock();
  pool.Unlock();
  metrics.Unlock();
  // Had a release dropped the wrong entry, a stale storage.index_build
  // would still be held and this acquire would abort.
  MutexLock again(build);
}

TEST(LockRankCheckDeathTest, InversionAbortsWithTheHeldChain) {
  static Mutex build(kLockRankStorageIndexBuild);    // tier 50
  static Mutex manager(kLockRankDurabilityManager);  // tier 60
  static Mutex pool(kLockRankCommonPool);            // tier 70
  MutexLock outer(build);
  MutexLock inner(pool);
  EXPECT_DEATH(
      { MutexLock wrong(manager); },
      "lock-rank violation: acquiring durability.manager \\(tier 60\\)\n"
      "  held \\(outermost first\\): storage.index_build \\(tier 50\\) -> "
      "common.pool \\(tier 70\\)\n");
}

TEST(LockRankCheckDeathTest, EqualTierAborts) {
  static Mutex a(kLockRankCommonPool);
  static Mutex b(kLockRankCommonPool);
  MutexLock outer(a);
  EXPECT_DEATH(
      { MutexLock inner(b); },
      "acquiring common.pool \\(tier 70\\)\n"
      "  held \\(outermost first\\): common.pool \\(tier 70\\)\n");
}

TEST(LockRankCheckDeathTest, RelockingTheSameMutexAbortsInsteadOfHanging) {
  static Mutex mu(kLockRankCommonPool);
  MutexLock outer(mu);
  EXPECT_DEATH(LockAgain(mu), "acquiring common.pool \\(tier 70\\)");
}

TEST(LockRankCheckDeathTest, ReaderAcquireIsCheckedLikeAWriter) {
  static SharedMutex index(kLockRankStorageIndexBuild);  // tier 50
  static Mutex pool(kLockRankCommonPool);                // tier 70
  MutexLock outer(pool);
  EXPECT_DEATH(
      { ReaderMutexLock reader(index); },
      "acquiring storage.index_build \\(tier 50\\)\n"
      "  held \\(outermost first\\): common.pool \\(tier 70\\)\n");
}

TEST(LockRankCheckDeathTest, NonLifoReleaseKeepsTheStillHeldRank) {
  static Mutex build(kLockRankStorageIndexBuild);    // tier 50
  static Mutex manager(kLockRankDurabilityManager);  // tier 60
  static Mutex pool(kLockRankCommonPool);            // tier 70
  build.Lock();
  pool.Lock();
  build.Unlock();
  EXPECT_DEATH({ MutexLock below(manager); },
               "acquiring durability.manager \\(tier 60\\)\n"
               "  held \\(outermost first\\): common.pool \\(tier 70\\)\n");
  pool.Unlock();
}

TEST(LockRankCheckDeathTest, TryLockedRankIsCheckedAgainst) {
  static Mutex result_cache(kLockRankKeywordResultCache);  // tier 30
  static Mutex build(kLockRankStorageIndexBuild);          // tier 50
  static Mutex pool(kLockRankCommonPool);                  // tier 70
  static Mutex unranked;
  MutexLock outer(pool);
  if (!build.TryLock()) FAIL() << "uncontended TryLock failed";
  MutexLock skipped(unranked);
  // Pushed after common.pool, so it is the innermost rank the blocking
  // acquire fails against; the unranked mutex is not in the chain.
  EXPECT_DEATH({ MutexLock below(result_cache); },
               "acquiring keyword.resultcache \\(tier 30\\)\n"
               "  held \\(outermost first\\): common.pool \\(tier 70\\) -> "
               "storage.index_build \\(tier 50\\)\n");
  build.Unlock();
}

}  // namespace
}  // namespace nebula

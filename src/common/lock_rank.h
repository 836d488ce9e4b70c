#ifndef NEBULA_COMMON_LOCK_RANK_H_
#define NEBULA_COMMON_LOCK_RANK_H_

/// The global mutex acquisition order, declared as data — the only
/// registry of lock ranks in the tree.
///
/// Every nebula::Mutex / nebula::SharedMutex in src/ is constructed with
/// one of the ranks below (tools/nebula_lint's [lock-rank-missing] rule
/// enforces this). A thread may only block on a mutex whose tier is
/// STRICTLY GREATER than the tier of the innermost ranked mutex it
/// already holds. The tiers form a total order, so any ABBA inversion
/// breaks the rule on its first wrong-order acquire.
///
/// Two checks read these constants:
///   - tools/nebula_lint pass_concurrency: [lock-order] statically flags
///     a lexically nested lock scope that contradicts the order, reading
///     the tiers from the `inline constexpr LockRank` lines of this file;
///   - lock_rank_check in common/sync.{h,cc}, compiled into every build:
///     validates each blocking acquire at runtime and aborts with the
///     held chain on a violation.
///
/// Adding a mutex: see DESIGN.md §9 "How to add a mutex". In short: pick
/// (or insert) a rank here, construct the mutex with it, and keep tiers
/// strictly increasing along every real acquisition chain. Tiers are
/// spaced by 10 so a new rank can slot between two existing ones without
/// renumbering.
namespace nebula {

/// One rank of the acquisition order. `tier` orders acquisition (lower =
/// acquired first / outermost); `name` is what violation reports print.
/// Constants, not an enum: the spacing convention keeps insertion cheap.
struct LockRank {
  const char* name;
  int tier;
};

/// PlanCache's keyword->configuration cache (core/identify.h). Held
/// across plan compilation, which probes fault points and bumps metrics.
inline constexpr LockRank kLockRankCorePlanCache = {"core.plancache", 20};

/// KeywordSearchEngine's statement-result memo (keyword/engine.h).
inline constexpr LockRank kLockRankKeywordResultCache =
    {"keyword.resultcache", 30};

/// Table's lazy value-index publication lock (storage/table.h). Held
/// across the index build, which probes a fault point.
inline constexpr LockRank kLockRankStorageIndexBuild =
    {"storage.index_build", 50};

/// durability::Manager's append/snapshot state. The WAL is the engine's
/// mutation chokepoint: it sits above the pool and all observability.
inline constexpr LockRank kLockRankDurabilityManager =
    {"durability.manager", 60};

/// ThreadPool's queue mutex. Instrumentation sinks run under it, so every
/// obs rank sits below.
inline constexpr LockRank kLockRankCommonPool = {"common.pool", 70};

/// EventLog's ring + sink (obs/event.h). Record() probes a fault point
/// and invokes the sink under this lock.
inline constexpr LockRank kLockRankObsEventLog = {"obs.eventlog", 90};

/// Logger's sink registration (common/logging.cc). Logging may happen
/// while holding any lock above; the sink runs under this one.
inline constexpr LockRank kLockRankCommonLogSink = {"common.logsink", 100};

/// FaultRegistry's point table (common/fault.h). Fault probes fire under
/// nearly every other lock in the tree — innermost, with only metrics
/// below.
inline constexpr LockRank kLockRankCommonFault = {"common.fault", 110};

/// MetricsRegistry's family table (obs/metrics.h). Instruments are
/// resolved (registry-locked) from arbitrary lock contexts; nothing may
/// be acquired under it. Innermost rank in the tree.
inline constexpr LockRank kLockRankObsMetrics = {"obs.metrics", 120};

}  // namespace nebula

#endif  // NEBULA_COMMON_LOCK_RANK_H_

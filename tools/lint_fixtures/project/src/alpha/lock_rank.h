// Fixture rank constants: the registry the concurrency pass reads tiers
// from.
#ifndef NEBULA_ALPHA_LOCK_RANK_H_
#define NEBULA_ALPHA_LOCK_RANK_H_

struct LockRank {
  const char* name;
  int tier;
};

inline constexpr LockRank kLockRankAlphaOuter = {"alpha.outer", 10};
inline constexpr LockRank kLockRankAlphaInner = {"alpha.inner", 20};

#endif  // NEBULA_ALPHA_LOCK_RANK_H_

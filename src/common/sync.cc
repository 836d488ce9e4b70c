#include "common/sync.h"

#include <cstdio>
#include <cstdlib>

#include "common/lock_rank.h"

namespace nebula::lock_rank_check {

namespace {

/// Blocking acquires nest in strictly increasing tiers, so a thread can
/// hold at most one entry per rank plus whatever try-locks it stacks on
/// top; 16 is far above both.
constexpr int kMaxHeld = 16;

thread_local const LockRank* tls_held[kMaxHeld];
thread_local int tls_depth = 0;

/// Prints the report and aborts. Direct stderr, not the Logger: the
/// logger takes common.logsink, which may be the very rank at fault.
[[noreturn]] void Fail(const LockRank& rank, const char* reason) {
  std::fprintf(stderr,
               "nebula: lock-rank violation: acquiring %s (tier %d)\n"
               "  held (outermost first):",
               rank.name, rank.tier);
  for (int i = 0; i < tls_depth; ++i) {
    std::fprintf(stderr, "%s %s (tier %d)", i == 0 ? "" : " ->",
                 tls_held[i]->name, tls_held[i]->tier);
  }
  std::fprintf(stderr, "\n  %s\n", reason);
  std::fflush(stderr);
  std::abort();
}

void Push(const LockRank& rank) {
  if (tls_depth == kMaxHeld) Fail(rank, "too many ranks held at once");
  tls_held[tls_depth++] = &rank;
}

}  // namespace

void OnAcquire(const LockRank& rank) {
  if (tls_depth > 0 && rank.tier <= tls_held[tls_depth - 1]->tier) {
    Fail(rank,
         "a blocking acquire needs a tier strictly above the innermost "
         "held rank (common/lock_rank.h)");
  }
  Push(rank);
}

void OnTryAcquired(const LockRank& rank) { Push(rank); }

void OnRelease(const LockRank& rank) {
  for (int i = tls_depth - 1; i >= 0; --i) {
    if (tls_held[i] != &rank) continue;
    for (int j = i; j + 1 < tls_depth; ++j) tls_held[j] = tls_held[j + 1];
    --tls_depth;
    return;
  }
}

}  // namespace nebula::lock_rank_check

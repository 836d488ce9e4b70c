#!/usr/bin/env bash
# run_lint.sh — clang-tidy over src/ with a committed-baseline diff.
#
# Runs clang-tidy (checks from the repo-root .clang-tidy) over every
# translation unit under src/, normalizes the findings, and diffs them
# against tools/lint_baseline.txt. Pre-existing debt recorded in the
# baseline never blocks; any finding NOT in the baseline fails the run.
#
# Usage:
#   tools/run_lint.sh [build-dir]     # default build dir: build
#
# Environment:
#   NEBULA_LINT_STRICT=1   fail (exit 3) when clang-tidy is unavailable
#                          instead of skipping. Defaults to 1 when CI or
#                          GITHUB_ACTIONS is set: a CI leg that silently
#                          skips its analysis is worse than a red one.
#   NEBULA_LINT_ONLY=1     stop after the nebula_lint stage (still
#                          writing the JSON findings artifact). For CI
#                          legs without clang-tidy installed: every leg
#                          uploads the artifact, only static-analysis
#                          pays for the tidy run.
#   NEBULA_LINT_JSON=path  findings artifact location (default
#                          <build-dir>/nebula-lint-findings.json).
#   CLANG_TIDY=<binary>    clang-tidy executable to use.
#
# tools/lint_baseline.txt is shared with the nebula_lint binary: its
# lines are either normalized clang-tidy findings (owned by this script)
# or "file: [rule] message" keys (owned by nebula_lint --update-baseline).
# Each tool rewrites only its own lines.
#
# Shrinking the baseline: fix findings, then regenerate with
#   tools/run_lint.sh build --update-baseline
# and commit the smaller file. Never regenerate to *add* entries for new
# code — fix the code instead.

set -u

# In CI, a missing clang-tidy must fail loudly, never skip silently.
if [ -n "${CI:-}" ] || [ -n "${GITHUB_ACTIONS:-}" ]; then
  : "${NEBULA_LINT_STRICT:=1}"
fi

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-build}"
UPDATE_BASELINE=0
if [ "${2:-}" = "--update-baseline" ]; then
  UPDATE_BASELINE=1
fi
BASELINE="${REPO_ROOT}/tools/lint_baseline.txt"

# --- nebula_lint + JSON artifact --------------------------------------------
# Runs before (and independently of) clang-tidy so EVERY CI leg that
# calls this script emits the nebula-lint-findings.json artifact, not
# just the static-analysis job. Skipped only when the binary has not
# been built in this build dir (the dedicated lint ctest still covers
# the tree there).
LINT_JSON="${NEBULA_LINT_JSON:-${BUILD_DIR}/nebula-lint-findings.json}"
NEBULA_LINT_BIN="${BUILD_DIR}/tools/nebula_lint"
if [ -x "${NEBULA_LINT_BIN}" ]; then
  if ! "${NEBULA_LINT_BIN}" --root "${REPO_ROOT}" \
       --baseline "${REPO_ROOT}/tools/lint_baseline.txt" \
       --timings \
       --json "${LINT_JSON}"; then
    echo "run_lint.sh: nebula_lint found fresh violations (see above;" \
         "artifact: ${LINT_JSON})" >&2
    exit 1
  fi
  echo "run_lint.sh: nebula_lint clean; findings artifact: ${LINT_JSON}"
else
  echo "run_lint.sh: ${NEBULA_LINT_BIN} not built; skipping nebula_lint" \
       "stage (ctest -L lint covers it)" >&2
fi

if [ "${NEBULA_LINT_ONLY:-0}" = "1" ]; then
  echo "run_lint.sh: NEBULA_LINT_ONLY=1 — skipping clang-tidy stage"
  exit 0
fi

# --- locate clang-tidy ------------------------------------------------------
TIDY="${CLANG_TIDY:-}"
if [ -z "${TIDY}" ]; then
  for candidate in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
                   clang-tidy-16 clang-tidy-15 clang-tidy-14; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      TIDY="${candidate}"
      break
    fi
  done
fi
if [ -z "${TIDY}" ]; then
  if [ "${NEBULA_LINT_STRICT:-0}" = "1" ]; then
    echo "run_lint.sh: clang-tidy not found and NEBULA_LINT_STRICT=1" >&2
    exit 3
  fi
  echo "run_lint.sh: clang-tidy not found; skipping (set" \
       "NEBULA_LINT_STRICT=1 to make this an error)" >&2
  exit 0
fi

# --- locate compile_commands.json -------------------------------------------
CDB="${BUILD_DIR}/compile_commands.json"
if [ ! -f "${CDB}" ]; then
  echo "run_lint.sh: ${CDB} not found — configure first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S ${REPO_ROOT}" >&2
  echo "(CMAKE_EXPORT_COMPILE_COMMANDS is on by default)" >&2
  exit 2
fi

# --- run clang-tidy over src/ ------------------------------------------------
mapfile -t SOURCES < <(find "${REPO_ROOT}/src" -name '*.cc' | sort)
echo "run_lint.sh: ${TIDY} over ${#SOURCES[@]} files (this can take a" \
     "few minutes)..."

RAW="$(mktemp)"
trap 'rm -f "${RAW}"' EXIT
"${TIDY}" -p "${BUILD_DIR}" --quiet "${SOURCES[@]}" >"${RAW}" 2>/dev/null

# Normalize: keep only finding lines, make paths repo-relative, and drop
# line:column (so unrelated edits above a finding don't churn the
# baseline). One finding = "path: severity: message [check]".
normalize() {
  grep -E '(warning|error):' "$1" |
    sed -E -e "s#${REPO_ROOT}/##g" -e 's/:[0-9]+:[0-9]+:/:/' |
    sort -u
}

ACTUAL="$(mktemp)"
OURS="$(mktemp)"
trap 'rm -f "${RAW}" "${ACTUAL}" "${OURS}"' EXIT
normalize "${RAW}" >"${ACTUAL}"

# Baseline lines owned by nebula_lint ("file: [rule] message") are not
# ours to touch — filter them out of the clang-tidy diff and preserve
# them on --update-baseline.
NEBULA_LINT_RULES='naked-sync|fault-name|nondeterminism|layer-dag'
NEBULA_LINT_RULES="${NEBULA_LINT_RULES}|include-cycle|include-guard"
NEBULA_LINT_RULES="${NEBULA_LINT_RULES}|unused-include|missing-include"
NEBULA_LINT_RULES="${NEBULA_LINT_RULES}|dropped-status|lock-rank-missing"
NEBULA_LINT_RULES="${NEBULA_LINT_RULES}|lock-order"
NEBULA_LINT_RULES="${NEBULA_LINT_RULES}|guarded-coverage"
NEBULA_LINT_RULES="${NEBULA_LINT_RULES}|sql-taint|unordered-iteration"
NEBULA_LINT_RULES="${NEBULA_LINT_RULES}|unchecked-io"
touch "${BASELINE}"
grep -E ": \[(${NEBULA_LINT_RULES})\] " "${BASELINE}" >"${OURS}" || true

if [ "${UPDATE_BASELINE}" = "1" ]; then
  cat "${OURS}" "${ACTUAL}" >"${BASELINE}"
  echo "run_lint.sh: baseline updated ($(wc -l <"${ACTUAL}") clang-tidy" \
       "entries, $(wc -l <"${OURS}") nebula_lint line(s) kept)"
  exit 0
fi

TIDY_BASELINE="$(mktemp)"
trap 'rm -f "${RAW}" "${ACTUAL}" "${OURS}" "${TIDY_BASELINE}"' EXIT
grep -vE ": \[(${NEBULA_LINT_RULES})\] " "${BASELINE}" | sort -u \
  >"${TIDY_BASELINE}" || true
NEW_FINDINGS="$(comm -13 "${TIDY_BASELINE}" "${ACTUAL}")"
FIXED="$(comm -23 "${TIDY_BASELINE}" "${ACTUAL}" | wc -l)"

if [ -n "${NEW_FINDINGS}" ]; then
  echo "run_lint.sh: NEW clang-tidy findings (not in tools/lint_baseline.txt):"
  echo "${NEW_FINDINGS}"
  echo
  echo "Fix them, or (for genuinely pre-existing debt only) regenerate the"
  echo "baseline with: tools/run_lint.sh ${BUILD_DIR} --update-baseline"
  exit 1
fi

echo "run_lint.sh: clean ($(wc -l <"${ACTUAL}") finding(s), all in baseline;" \
     "${FIXED} baseline entr(ies) no longer fire — consider shrinking it)"
exit 0

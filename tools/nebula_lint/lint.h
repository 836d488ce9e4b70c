// nebula_lint v3 — multi-pass project analyzer for architectural rules
// clang-tidy cannot express (see DESIGN.md "Static analysis & lock
// discipline" and README "Static analysis").
//
// Passes:
//   textual      the v1 line rules: [naked-sync], [fault-name],
//                [nondeterminism].
//   layers       [layer-dag]      an #include edge that goes *up* the
//                                 layer manifest (tools/layers.txt), or
//                                 sideways within a tier.
//                [include-cycle]  a cycle among project headers, reported
//                                 with the full edge chain.
//   hygiene      [include-guard]  header guard is not the canonical
//                                 NEBULA_<PATH>_H_ spelling.
//                [unused-include] a direct project include none of whose
//                                 exported symbols the file uses.
//                [missing-include] a top-level symbol used via a
//                                 transitive include only.
//   discipline   [dropped-status] a statement that calls a function
//                                 returning Status/Result and drops it.
//   concurrency  [lock-rank-missing] a nebula::Mutex/SharedMutex member
//                                 or global declared without a
//                                 kLockRank* constructor argument.
//                [lock-order]     a nested MutexLock scope that
//                                 contradicts the rank tiers declared in
//                                 common/lock_rank.h, reported with the
//                                 full acquisition chain.
//                [guarded-coverage] a field written under a MutexLock
//                                 scope whose declaration carries no
//                                 GUARDED_BY annotation.
//   dataflow     [sql-taint]      a string reaching a SQL sink
//                                 (tools/sql_sinks.txt) without passing
//                                 through the sql/escape.h layer,
//                                 reported with the full taint chain.
//                [unordered-iteration] a range-for over an unordered
//                                 container in a result-affecting layer
//                                 without an order-insensitive
//                                 annotation.
//                [unchecked-io]   fopen/fwrite/rename/fsync-family calls
//                                 outside src/durability/, or inside it
//                                 with the return value dropped.
//
// Standalone by design: no nebula libraries, std only. The analysis is
// textual and deliberately conservative — see each pass for the
// heuristics and their escape hatches.

#ifndef NEBULA_TOOLS_NEBULA_LINT_LINT_H_
#define NEBULA_TOOLS_NEBULA_LINT_LINT_H_

#include <cstddef>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace nebula_lint {

namespace fs = std::filesystem;

struct Finding {
  std::string file;  ///< root-relative path, '/'-separated
  size_t line = 0;
  std::string rule;
  std::string message;

  /// Stable identity used for baseline suppression: no line number, so
  /// unrelated edits above a finding don't churn the baseline (same
  /// normalization tools/run_lint.sh applies to clang-tidy output).
  std::string BaselineKey() const;
};

/// One scanned file: raw text plus a comment- and literal-stripped shadow
/// copy every pass matches against (so "std::mutex" in a doc comment or a
/// string literal never fires a rule).
struct SourceFile {
  fs::path path;    ///< absolute
  std::string rel;  ///< root-relative, '/'-separated (the report name)
  bool is_header = false;
  std::vector<std::string> raw_lines;
  /// raw_lines with // and /* */ comments and the contents of string and
  /// character literals blanked to spaces (lengths preserved).
  std::vector<std::string> code_lines;
  /// Project-form includes (#include "x/y.h"), in file order, with the
  /// 1-based line each appears on and whether it carries a
  /// "nebula-lint: keep" escape comment.
  struct Include {
    std::string target;
    size_t line = 0;
    bool keep = false;
  };
  std::vector<Include> includes;
};

/// The scanned tree: every .h/.cc/.cpp under the requested roots, sorted
/// by rel path, plus an index from rel path to position.
struct SourceTree {
  fs::path root;  ///< repo root all rel paths hang off
  std::vector<SourceFile> files;
  std::map<std::string, size_t> by_rel;

  const SourceFile* Find(const std::string& rel) const;
};

/// Collector shared by every pass.
class Report {
 public:
  void Add(const std::string& file, size_t line, const std::string& rule,
           const std::string& message);

  const std::vector<Finding>& findings() const { return findings_; }
  size_t CountByRule(const std::string& rule) const;

 private:
  std::vector<Finding> findings_;
};

// --------------------------------------------------------------------------
// util.cc

bool IsIdentChar(char c);
/// Finds `token` in `line` with identifier boundaries on both sides.
bool ContainsToken(const std::string& line, const std::string& token);
/// True when the path has `part` as one of its directory components.
bool HasPathComponent(const fs::path& path, const std::string& part);
bool EndsWith(const std::string& s, const std::string& suffix);

/// Loads one file, filling raw/code lines and the include list.
/// `rel` is the root-relative name used in reports.
SourceFile LoadSourceFile(const fs::path& path, const std::string& rel);

/// Scans `roots` (relative to `root`) recursively for .h/.cc/.cpp files,
/// skipping directory names in `skip_dirs` (plus anything starting with
/// '.').
SourceTree LoadTree(const fs::path& root, const std::vector<std::string>& roots,
                    const std::set<std::string>& skip_dirs);

// --------------------------------------------------------------------------
// Passes. Each appends findings to `report`.

/// v1 textual rules. `canonical_fault_names` comes from
/// src/common/fault_points.h; pass an empty set to treat every kFault*
/// identifier as unknown (self-test mode).
void RunTextualPass(const SourceTree& tree,
                    const std::set<std::string>& canonical_fault_names,
                    Report* report);

/// Layer manifest: tiers bottom-to-top, each tier a set of src/ module
/// directory names. Loaded from tools/layers.txt.
struct LayerManifest {
  std::vector<std::vector<std::string>> tiers;
  std::map<std::string, size_t> tier_of;  ///< module -> 1-based tier

  static LayerManifest Load(const fs::path& path, std::string* error);
};

/// [layer-dag] + [include-cycle].
void RunLayerPass(const SourceTree& tree, const LayerManifest& manifest,
                  Report* report);

/// [include-guard] + [unused-include] + [missing-include].
void RunHygienePass(const SourceTree& tree, Report* report);

/// [dropped-status].
void RunDisciplinePass(const SourceTree& tree, Report* report);

/// [lock-rank-missing] + [lock-order] + [guarded-coverage]. Rank tiers
/// come from the kLockRank* constants of the tree's lock_rank.h. Only
/// src/ files are constrained (tests may build private rank sets for the
/// rank check's own fixtures).
void RunConcurrencyPass(const SourceTree& tree, Report* report);

/// SQL sink registry: the functions whose returned strings are executed
/// or cached as SQL, plus the escaping layer that makes pieces of them
/// safe. Loaded from tools/sql_sinks.txt, one `<directive> <name>` per
/// line:
///   sink-return Cls::Fn|Fn   analyze this function's definition; its
///                            return value is SQL (and, once returned,
///                            counts as escaped for other sinks).
///   sanitizer Fn             calls to Fn(...) produce escaped text.
///   safe-call Fn             calls to Fn(...) produce fixed/literal
///                            text (operator names, keywords).
///   safe-type T              a builder type (SqlFragment) that only
///                            ever concatenates escaped pieces.
struct SqlSinkRegistry {
  struct Sink {
    std::string qualifier;  ///< "Cls" for Cls::Fn, "" for a free Fn
    std::string name;
  };
  std::vector<Sink> sink_returns;
  std::set<std::string> sink_names;  ///< unqualified sink-return names
  std::set<std::string> sanitizers;
  std::set<std::string> safe_calls;
  std::set<std::string> safe_types;

  static SqlSinkRegistry Load(const fs::path& path, std::string* error);
};

/// [sql-taint] + [unordered-iteration] + [unchecked-io].
void RunDataflowPass(const SourceTree& tree, const SqlSinkRegistry& registry,
                     Report* report);

}  // namespace nebula_lint

#endif  // NEBULA_TOOLS_NEBULA_LINT_LINT_H_

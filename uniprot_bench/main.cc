// uniprot_bench — closed-loop, single-client benchmark of the Nebula
// engine on the UniProt-like generator (src/workload).
//
//   uniprot_bench --workload curate_large|review_durable|bulk_ingest
//                 --seed N --seconds S --trace 0|1
//                 [--rounds R] [--out-dir DIR]
//
// A run repeats whole rounds until S seconds have passed (at least two
// rounds), or exactly R rounds with --rounds. Every round generates the
// workload's dataset, sets up a fresh engine on it (timed as setup), then
// executes the same fixed sequence of operations (timed) and checks the
// outputs. The dataset and the note population are fixed; the seed sets
// the order the notes arrive in. Because each round starts from the same
// state and does the same work, every seeded counter must repeat exactly
// from round to round, and the driver checks that too.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds (at least three) and prints the per-layer metrics.
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The line before it holds the seeded counters of one round.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "annotation/quality.h"
#include "core/acg.h"
#include "core/engine.h"
#include "core/identify.h"
#include "keyword/engine.h"
#include "keyword/shared_executor.h"
#include "notes.h"
#include "obs/metrics.h"
#include "spans.h"
#include "storage/table.h"
#include "workload/generator.h"
#include "workload/oracle.h"

namespace uniprot_bench {
namespace {

namespace fs = std::filesystem;
using nebula::AnnotationReport;
using nebula::TupleId;

// ---------------------------------------------------------------- setup

struct WorkloadDef {
  std::string name;
  nebula::DatasetSpec spec;
  size_t notes = 0;      ///< annotations inserted per round
  bool durable = false;  ///< WAL in the engine's default flush mode
  bool shared_execution = false;
  /// The oracle expert answers the pending tasks after every insert
  /// (true) or once, after the round's last insert (false).
  bool review_each = false;
};

bool LookupWorkload(const std::string& name, WorkloadDef* w) {
  w->name = name;
  if (name == "curate_large") {
    w->spec = nebula::DatasetSpec::Large();
    w->notes = 800;
  } else if (name == "review_durable") {
    w->spec = nebula::DatasetSpec::Small();
    w->notes = 960;
    w->durable = true;
    w->review_each = true;
  } else if (name == "bulk_ingest") {
    w->spec = nebula::DatasetSpec::Mid();
    w->notes = 3072;
    // Sequential, without the engine pool: with 2 workers each hand-off
    // waits for an idle vCPU to wake, and on a shared VM that made rounds
    // take 3.0-7.1 s for the same work (throughput spread 19-29% over
    // four 10-seed sets). Without a pool, InsertAnnotations is a loop over
    // InsertAnnotation, so the notes go in one by one; the pooled batch
    // path is exercised by an output check instead (CheckPooledBatches).
    w->shared_execution = true;
  } else {
    return false;
  }
  return true;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int rounds = 0;  ///< 0: time-driven
  std::string out_dir = ".bench_build/uniprot_run";
};

// ------------------------------------------------------------ counters

/// Seeded counts of one round. Every field must be identical between two
/// rounds (or runs) with the same seed.
struct Counters {
  std::map<std::string, uint64_t> values;
  uint64_t& operator[](const std::string& k) { return values[k]; }
  uint64_t get(const std::string& k) const {
    auto it = values.find(k);
    return it == values.end() ? 0 : it->second;
  }
  std::string Json() const {
    std::string out = "{";
    for (const auto& [k, v] : values) {
      if (out.size() > 1) out += ", ";
      out += "\"" + k + "\": " + std::to_string(v);
    }
    return out + "}";
  }
};

/// Process-global obs registry counters the per-layer metrics read.
struct RegistryView {
  uint64_t memo_hit = 0, memo_miss = 0, plan_hit = 0, plan_miss = 0,
           wal_bytes = 0;

  static RegistryView Read() {
    auto& r = nebula::obs::MetricsRegistry::Global();
    const auto c = [&r](const char* name, nebula::obs::Labels labels) {
      return r.GetCounter(name, std::move(labels))->Value();
    };
    RegistryView v;
    v.memo_hit = c("nebula_sql_result_cache_total", {{"outcome", "hit"}});
    v.memo_miss = c("nebula_sql_result_cache_total", {{"outcome", "miss"}});
    v.plan_hit = c("nebula_plan_cache_total", {{"outcome", "hit"}});
    v.plan_miss = c("nebula_plan_cache_total", {{"outcome", "miss"}});
    v.wal_bytes = c("nebula_wal_bytes_total", {});
    return v;
  }
};

// ------------------------------------------------------------- shadow

/// Traced runs only: replays each annotation's Stage 2 through the
/// keyword layer's public calls on a private search engine and plan
/// cache. They see the same query groups in the same order as the
/// engine's own, so cache and memo hits mirror the engine's, and the
/// compile / execute / merge split of Stage 2 can be timed from outside.
/// With shared execution the replay takes the engine's path too:
/// SharedKeywordExecutor::ExecuteGroup, which merges each query's hits
/// itself, so there is no separate merge to time.
class Stage2Shadow {
 public:
  Stage2Shadow(const nebula::Catalog* catalog, const nebula::NebulaMeta* meta,
               const nebula::KeywordSearchParams& params, bool shared)
      : engine_(catalog, meta, params), plans_(meta), shared_(shared) {}

  /// Returns false when a statement fails (the engine's own run did not).
  bool Replay(const std::vector<nebula::KeywordQuery>& queries, uint64_t op,
              SpanLog* spans, double* compile_ns, double* execute_ns,
              double* merge_ns) {
    const int64_t t0 = NowNs();
    const uint32_t root = spans->Add("shadow.stage2", 0, op, t0, t0);
    const auto plans = plans_.GetOrCompileGroup(engine_, queries);
    const int64_t t1 = NowNs();
    spans->Add("stage2.compile", root, op, t0, t1);
    *compile_ns += static_cast<double>(t1 - t0);
    if (shared_) {
      nebula::SharedKeywordExecutor executor(&engine_);
      std::vector<std::vector<nebula::SearchHit>> results;
      const nebula::Status st =
          executor.ExecuteGroup(queries, &results, nullptr, &plans);
      const int64_t t2 = NowNs();
      if (!st.ok()) return false;
      spans->Add("stage2.execute", root, op, t1, t2);
      *execute_ns += static_cast<double>(t2 - t1);
      spans->SetEnd(root, t2);
      return true;
    }
    for (const auto& plan : plans) {
      std::vector<std::vector<nebula::SearchHit>> per_sql;
      const int64_t e0 = NowNs();
      for (const auto& sql : plan) {
        auto hits = engine_.ExecuteSql(sql, nullptr, nullptr);
        if (!hits.ok()) return false;
        per_sql.push_back(std::move(hits).value());
      }
      const int64_t e1 = NowNs();
      auto merged = nebula::KeywordSearchEngine::MergeHits(per_sql);
      const int64_t e2 = NowNs();
      spans->Add("stage2.execute", root, op, e0, e1);
      spans->Add("stage2.merge", root, op, e1, e2);
      *execute_ns += static_cast<double>(e1 - e0);
      *merge_ns += static_cast<double>(e2 - e1);
    }
    spans->SetEnd(root, NowNs());
    return true;
  }

 private:
  nebula::KeywordSearchEngine engine_;
  nebula::PlanCache plans_;
  const bool shared_;
};

// -------------------------------------------------------------- round

/// Timings and counts of one round.
struct RoundResult {
  bool traced = false;
  double setup_s = 0, generate_s = 0, index_warm_s = 0;
  /// Timed seconds behind annotations_per_s: the inserts, plus the
  /// decisions when the expert reviews after every insert.
  double op_seconds = 0;
  uint64_t annotations = 0;
  /// Operations by type: [0] inserted annotations, [1] expert decisions.
  uint64_t attempted[2] = {0, 0}, failed[2] = {0, 0};
  std::vector<double> insert_ms, decision_ms;
  // Per-layer sums over the round's annotations (microseconds).
  double store_us = 0, map_us = 0, adjust_us = 0, formation_us = 0,
         identify_us = 0, submit_us = 0;
  double compile_ns = 0, execute_ns = 0, merge_ns = 0;  // shadow, traced
  std::vector<double> command_us;   ///< decisions with no snapshot in them
  std::vector<double> snapshot_ms;  ///< calls during which a snapshot ran
  std::vector<double> checkpoint_bytes;  ///< traced: final-state snapshot
  double shadow_ns = 0;             ///< time in the Stage-2 shadow replay
  uint64_t pending_created = 0;
  double peak_rss_mb = 0;  ///< high-water mark after the timed operations
  Counters counters;
  std::vector<std::string> errors;  ///< failed output checks
};

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// Bytes of the snapshot CURRENT names in a durability directory.
uint64_t CurrentSnapshotBytes(const fs::path& dir) {
  std::ifstream f(dir / "CURRENT");
  std::string name;
  std::getline(f, name);
  return name.empty() ? 0 : DirBytes(dir / name);
}

struct TaskKey {
  uint64_t vid;
  uint64_t annotation;
  TupleId tuple;
  double confidence;
  int state;
  bool operator==(const TaskKey& o) const {
    return vid == o.vid && annotation == o.annotation && tuple == o.tuple &&
           confidence == o.confidence && state == o.state;
  }
};

std::vector<TaskKey> TaskKeys(const nebula::VerificationManager& v) {
  std::vector<TaskKey> out;
  for (const auto& t : v.tasks()) {
    out.push_back({t.vid, t.annotation, t.tuple, t.confidence,
                   static_cast<int>(t.state)});
  }
  return out;
}

bool SameAttachments(const nebula::AnnotationStore& a,
                     const nebula::AnnotationStore& b) {
  const auto x = a.AllAttachments();
  const auto y = b.AllAttachments();
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].annotation != y[i].annotation || !(x[i].tuple == y[i].tuple) ||
        x[i].type != y[i].type || x[i].weight != y[i].weight) {
      return false;
    }
  }
  return a.num_annotations() == b.num_annotations();
}

bool SameReport(const AnnotationReport& a, const AnnotationReport& b) {
  if (a.annotation != b.annotation || a.queries.size() != b.queries.size() ||
      a.candidates.size() != b.candidates.size() || a.mode != b.mode ||
      a.spam.spam_suspected != b.spam.spam_suspected ||
      a.verification.auto_accepted != b.verification.auto_accepted ||
      a.verification.auto_rejected != b.verification.auto_rejected ||
      a.verification.pending != b.verification.pending ||
      a.verification.already_attached != b.verification.already_attached) {
    return false;
  }
  for (size_t i = 0; i < a.queries.size(); ++i) {
    if (a.queries[i].keywords != b.queries[i].keywords ||
        a.queries[i].weight != b.queries[i].weight ||
        a.queries[i].label != b.queries[i].label) {
      return false;
    }
  }
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    if (!(a.candidates[i].tuple == b.candidates[i].tuple) ||
        a.candidates[i].confidence != b.candidates[i].confidence ||
        a.candidates[i].evidence != b.candidates[i].evidence) {
      return false;
    }
  }
  return true;
}

class Round {
 public:
  Round(const WorkloadDef& w, const Options& o, bool traced, bool first,
        SpanLog* spans, uint64_t* next_op)
      : w_(w), o_(o), traced_(traced), first_(first), spans_(spans),
        next_op_(next_op) {
    r_.traced = traced;
  }

  RoundResult Run() {
    if (!Setup()) return std::move(r_);
    const RegistryView before = RegistryView::Read();
    for (size_t i = 0; i < notes_.size(); ++i) {
      InsertOne(i);
      if (w_.review_each) Review();
    }
    if (!w_.review_each) Review();
    // Before the checks, which hold a second dataset and engine.
    r_.peak_rss_mb = PeakRssMb();
    const RegistryView after = RegistryView::Read();
    Count(before, after);
    Check();
    if (traced_) Checkpoint();
    engine_.reset();
    if (w_.durable) {
      std::error_code ec;
      fs::remove_all(DurableDir(), ec);
    }
    return std::move(r_);
  }

 private:
  bool Fail(const std::string& what) {
    r_.errors.push_back(what);
    return false;
  }

  nebula::NebulaConfig Config() const {
    nebula::NebulaConfig cfg;
    cfg.identify.shared_execution = w_.shared_execution;
    if (w_.durable) {
      cfg.durability_dir = DurableDir();
      // Baseline snapshot only (the engine's default cadence is every 64
      // committed ops). A cadence snapshot creates, renames and deletes a
      // directory through the filesystem journal, which on a shared disk
      // made the timings swing by up to 59% between runs. Traced rounds
      // time one snapshot of every workload's final state instead.
      cfg.snapshot_every_n = 0;
    }
    return cfg;
  }

  std::string DurableDir() const {
    return o_.out_dir + "/wal-" + w_.name + "-" + std::to_string(getpid());
  }

  bool Setup() {
    const int64_t t0 = NowNs();
    auto ds = nebula::GenerateBioDataset(w_.spec);
    if (!ds.ok()) return Fail("generate: " + ds.status().ToString());
    ds_ = std::move(ds).value();
    r_.generate_s = static_cast<double>(NowNs() - t0) / 1e9;
    notes_ = MakeNotes(*ds_, w_.notes, o_.seed);
    if (notes_.size() != w_.notes) return Fail("too few notes in dataset");
    ids_ = std::make_unique<IdentifierMap>(*ds_);
    if (w_.durable) {
      std::error_code ec;
      fs::remove_all(DurableDir(), ec);
      fs::create_directories(DurableDir(), ec);
    }
    engine_ = std::make_unique<nebula::NebulaEngine>(
        &ds_->catalog, &ds_->store, &ds_->meta, Config());
    engine_->RebuildAcg();
    const int64_t t1 = NowNs();
    for (const auto& table : ds_->catalog.tables()) {
      if (table->TryValueIndex() == nullptr) {
        return Fail("value index of " + table->name() + " failed to build");
      }
    }
    r_.index_warm_s = static_cast<double>(NowNs() - t1) / 1e9;
    if (w_.durable) {
      auto st = engine_->OpenDurability();
      if (!st.ok()) return Fail("open durability: " + st.ToString());
    }
    if (traced_) {
      shadow_ = std::make_unique<Stage2Shadow>(&ds_->catalog, &ds_->meta,
                                               engine_->config().search,
                                               w_.shared_execution);
    }
    r_.setup_s = static_cast<double>(NowNs() - t0) / 1e9;
    spans_->Add("setup", 0, ++*next_op_, t0, NowNs());
    // The baseline snapshot OpenDurability wrote, sized outside set-up.
    if (w_.durable) {
      r_.counters["snapshot_bytes"] += CurrentSnapshotBytes(DurableDir());
    }
    return true;
  }

  uint64_t Snapshots() {
    auto* d = engine_->durability();
    return d == nullptr ? 0 : d->snapshots_written();
  }

  /// Books one annotation's report: quality counts, layer sums, spans.
  void Book(size_t note, const AnnotationReport& rep, uint64_t op,
            uint32_t root, int64_t start_ns) {
    ++r_.annotations;
    note_of_[rep.annotation] = note;
    for (const TupleId& t : notes_[note].truth) {
      ideal_.Add(rep.annotation, t);
    }
    r_.pending_created += rep.verification.pending;
    r_.store_us += static_cast<double>(rep.timings.store_us);
    r_.map_us += static_cast<double>(rep.generation_timing.map_generation_us);
    r_.adjust_us +=
        static_cast<double>(rep.generation_timing.context_adjust_us);
    r_.formation_us +=
        static_cast<double>(rep.generation_timing.query_formation_us);
    r_.identify_us += static_cast<double>(rep.timings.search_us);
    r_.submit_us += static_cast<double>(rep.timings.verification_us);
    reports_.push_back(rep);
    if (!traced_) return;
    // The engine's own stage timings become child spans of the timed
    // call, laid end to end from its start.
    int64_t at = start_ns;
    const auto child = [&](const char* name, uint64_t us) {
      const int64_t end = at + static_cast<int64_t>(us) * 1000;
      spans_->Add(name, root, op, at, end);
      at = end;
    };
    child("stage0.store", rep.timings.store_us);
    child("stage1.map", rep.generation_timing.map_generation_us);
    child("stage1.adjust", rep.generation_timing.context_adjust_us);
    child("stage1.formation", rep.generation_timing.query_formation_us);
    child("stage2.identify", rep.timings.search_us);
    child("stage3.submit", rep.timings.verification_us);
    const int64_t s0 = NowNs();
    if (!shadow_->Replay(rep.queries, op, spans_, &r_.compile_ns,
                         &r_.execute_ns, &r_.merge_ns)) {
      Fail("shadow Stage-2 statement failed");
    }
    r_.shadow_ns += static_cast<double>(NowNs() - s0);
  }

  void InsertOne(size_t i) {
    const Note& note = notes_[i];
    const uint64_t op = ++*next_op_;
    const uint64_t snaps = Snapshots();
    const int64_t s = NowNs();
    auto rep = engine_->InsertAnnotation(note.text, {note.truth[0]}, "bench");
    const int64_t e = NowNs();
    ++r_.attempted[0];
    if (!rep.ok()) {
      ++r_.failed[0];
      return;
    }
    const double ms = static_cast<double>(e - s) / 1e6;
    r_.insert_ms.push_back(ms);
    r_.op_seconds += static_cast<double>(e - s) / 1e9;
    const uint32_t root = spans_->Add("insert", 0, op, s, e);
    if (Snapshots() != snaps) {
      ++r_.counters["snapshots_in_inserts"];
      SnapshotTaken(ms);
    }
    Book(i, *rep, op, root, s);
  }

  void SnapshotTaken(double call_ms) {
    r_.snapshot_ms.push_back(call_ms);
    r_.counters["snapshot_bytes"] += CurrentSnapshotBytes(DurableDir());
  }

  /// The oracle expert answers every pending task through the paper's
  /// VERIFY / REJECT ATTACHMENT command; each command is one operation.
  void Review() {
    nebula::OracleExpert oracle(&ideal_);
    auto& v = engine_->verification();
    std::vector<uint64_t> vids;
    for (const auto* task : v.PendingTasks()) vids.push_back(task->vid);
    for (uint64_t vid : vids) {
      auto task = v.GetTask(vid);
      if (!task.ok()) {
        Fail("pending task vanished");
        continue;
      }
      const bool accept = oracle.WouldAccept(**task);
      const std::string cmd = std::string(accept ? "VERIFY" : "REJECT") +
                              " ATTACHMENT " + std::to_string(vid) + ";";
      const uint64_t op = ++*next_op_;
      const uint64_t snaps = Snapshots();
      const int64_t s = NowNs();
      const nebula::Status st = v.ExecuteCommand(cmd);
      const int64_t e = NowNs();
      ++r_.attempted[1];
      if (!st.ok()) {
        ++r_.failed[1];
        continue;
      }
      const double ms = static_cast<double>(e - s) / 1e6;
      r_.decision_ms.push_back(ms);
      if (w_.review_each) r_.op_seconds += static_cast<double>(e - s) / 1e9;
      const bool snapshot = Snapshots() != snaps;
      spans_->Add(snapshot ? "decision+snapshot" : "decision", 0, op, s, e);
      if (snapshot) {
        SnapshotTaken(ms);
      } else {
        r_.command_us.push_back(ms * 1e3);
      }
    }
  }

  void Count(const RegistryView& before, const RegistryView& after) {
    Counters& c = r_.counters;
    c["annotations"] = r_.annotations;
    c["decisions"] = r_.decision_ms.size();
    uint64_t queries = 0, candidates = 0, true_candidates = 0, spam = 0;
    for (const auto& rep : reports_) {
      queries += rep.queries.size();
      candidates += rep.candidates.size();
      spam += rep.spam.spam_suspected ? 1 : 0;
      for (const auto& cand : rep.candidates) {
        if (ideal_.Contains(rep.annotation, cand.tuple)) ++true_candidates;
      }
    }
    c["queries"] = queries;
    c["candidates"] = candidates;
    c["true_candidates"] = true_candidates;
    c["spam_guarded"] = spam;
    c["rows_examined"] = engine_->search_engine().stats().rows_examined;
    c["tasks_pending_created"] = r_.pending_created;
    const auto stats = engine_->verification().ComputeStats();
    c["tasks_auto_accepted"] = stats.auto_accepted;
    c["tasks_auto_rejected"] = stats.auto_rejected;
    c["tasks_expert_accepted"] = stats.expert_accepted;
    c["tasks_expert_rejected"] = stats.expert_rejected;
    c["tasks_pending_left"] = stats.pending;
    // A true link found: a non-focal ground-truth tuple whose task was
    // auto-accepted, expert-accepted, or is still pending.
    uint64_t links = 0;
    for (const auto& t : engine_->verification().tasks()) {
      auto it = note_of_.find(t.annotation);
      if (it == note_of_.end()) continue;
      const Note& note = notes_[it->second];
      if (t.tuple == note.truth[0] || !ideal_.Contains(t.annotation, t.tuple))
        continue;
      if (t.state == nebula::TaskState::kAutoAccepted ||
          t.state == nebula::TaskState::kExpertAccepted ||
          t.state == nebula::TaskState::kPending) {
        ++links;
      }
    }
    c["true_links"] = links;
    c["acg_edges"] = engine_->acg().num_edges();
    if (auto* d = engine_->durability()) {
      c["wal_appends"] = d->wal_appends();
      c["snapshots"] = d->snapshots_written();
    }
    c["wal_bytes"] = after.wal_bytes - before.wal_bytes;
    // The shadow replay of a traced round also drives these two caches,
    // so they are counted on untraced rounds only.
    if (!traced_) {
      c["memo_hits"] = after.memo_hit - before.memo_hit;
      c["statements"] = (after.memo_hit - before.memo_hit) +
                        (after.memo_miss - before.memo_miss);
      c["plan_hits"] = after.plan_hit - before.plan_hit;
      c["plan_lookups"] = (after.plan_hit - before.plan_hit) +
                          (after.plan_miss - before.plan_miss);
    }
  }

  void Check() {
    // Exact-identifier discovery and candidate invariants.
    uint64_t named = 0, missed = 0;
    for (const auto& rep : reports_) {
      const Note& note = notes_[note_of_[rep.annotation]];
      std::unordered_set<TupleId, nebula::TupleIdHash> found;
      found.insert(note.truth[0]);
      double prev = 2.0;
      for (const auto& cand : rep.candidates) {
        found.insert(cand.tuple);
        if (!(cand.confidence > 0.0 && cand.confidence <= 1.0)) {
          Fail("candidate confidence outside (0, 1]");
        }
        if (cand.confidence > prev) Fail("candidates not in descending order");
        prev = cand.confidence;
      }
      for (const TupleId& t : ids_->Named(note.text)) {
        ++named;
        if (found.count(t) == 0) ++missed;
      }
      const auto& o = rep.verification;
      if (!rep.spam.spam_suspected &&
          o.auto_accepted + o.auto_rejected + o.pending + o.already_attached !=
              rep.candidates.size()) {
        Fail("task outcomes do not sum to the candidate count");
      }
    }
    r_.counters["named_identifiers"] = named;
    if (missed > 0) {
      Fail(std::to_string(missed) + " of " + std::to_string(named) +
           " named identifiers were neither focal nor candidate");
    }
    if (!first_) return;  // the costlier checks run once per run
    nebula::Acg rebuilt(engine_->config().acg_stability);
    rebuilt.BuildFromStore(ds_->store);
    if (rebuilt.Fingerprint() != engine_->acg().Fingerprint()) {
      Fail("incremental ACG differs from Acg::BuildFromStore");
    }
    if (w_.durable) CheckRecovery();
    if (w_.shared_execution) CheckPooledBatches();
  }

  /// A fresh engine reopening the durability directory must hold the live
  /// engine's attachments, tasks and ACG.
  void CheckRecovery() {
    auto ds = nebula::GenerateBioDataset(w_.spec);
    if (!ds.ok()) {
      Fail("regenerate: " + ds.status().ToString());
      return;
    }
    // Close the live engine's log first; its store stays for comparison.
    const std::vector<TaskKey> live_tasks = TaskKeys(engine_->verification());
    const uint64_t live_acg = engine_->acg().Fingerprint();
    engine_.reset();
    nebula::NebulaEngine reopened(&(*ds)->catalog, &(*ds)->store,
                                  &(*ds)->meta, Config());
    auto st = reopened.OpenDurability();
    if (!st.ok()) {
      Fail("reopen durability: " + st.ToString());
      return;
    }
    if (!SameAttachments(ds_->store, (*ds)->store)) {
      Fail("recovered attachments differ");
    }
    if (!(live_tasks == TaskKeys(reopened.verification()))) {
      Fail("recovered tasks differ");
    }
    if (reopened.acg().Fingerprint() != live_acg) {
      Fail("recovered ACG differs");
    }
  }

  /// InsertAnnotations with an engine pool pipelines Stage 1 of a batch
  /// and is documented to give the reports InsertAnnotation gives in
  /// order. A fresh pooled engine ingests the first notes in batches; its
  /// reports must equal the timed one-by-one ones.
  void CheckPooledBatches() {
    constexpr size_t kBatch = 16, kBatches = 4;
    auto ds = nebula::GenerateBioDataset(w_.spec);
    if (!ds.ok()) {
      Fail("regenerate: " + ds.status().ToString());
      return;
    }
    nebula::NebulaConfig cfg = Config();
    cfg.num_threads = 2;
    nebula::NebulaEngine pooled(&(*ds)->catalog, &(*ds)->store, &(*ds)->meta,
                                cfg);
    pooled.RebuildAcg();
    const size_t prefix = std::min(reports_.size(), kBatch * kBatches);
    for (size_t b = 0; b < prefix; b += kBatch) {
      std::vector<nebula::AnnotationRequest> reqs;
      for (size_t i = b; i < std::min(prefix, b + kBatch); ++i) {
        reqs.push_back({notes_[i].text, {notes_[i].truth[0]}, "bench"});
      }
      auto reps = pooled.InsertAnnotations(reqs);
      if (!reps.ok()) {
        Fail("pooled InsertAnnotations: " + reps.status().ToString());
        return;
      }
      for (size_t k = 0; k < reps->size(); ++k) {
        if (!SameReport((*reps)[k], reports_[b + k])) {
          Fail("pooled InsertAnnotations differs from InsertAnnotation at "
               "note " + std::to_string(b + k));
          return;
        }
      }
    }
  }

  /// Traced rounds: the cost of one snapshot of the round's final state,
  /// into the workload's durability directory or, without one, a scratch
  /// directory.
  void Checkpoint() {
    const std::string dir = o_.out_dir + "/checkpoint-" +
                            std::to_string(getpid());
    std::error_code ec;
    if (engine_->durability() == nullptr) {
      fs::remove_all(dir, ec);
      fs::create_directories(dir, ec);
      engine_->config().durability_dir = dir;
      auto st = engine_->OpenDurability();
      if (!st.ok()) {
        Fail("checkpoint open: " + st.ToString());
        return;
      }
    }
    const int64_t s = NowNs();
    auto st = engine_->durability()->SnapshotNow();
    const int64_t e = NowNs();
    if (!st.ok()) {
      Fail("checkpoint snapshot: " + st.ToString());
      return;
    }
    spans_->Add("durability.snapshot", 0, ++*next_op_, s, e);
    r_.snapshot_ms.push_back(static_cast<double>(e - s) / 1e6);
    r_.checkpoint_bytes.push_back(static_cast<double>(
        CurrentSnapshotBytes(engine_->config().durability_dir)));
    engine_.reset();
    fs::remove_all(dir, ec);
  }

  const WorkloadDef& w_;
  const Options& o_;
  const bool traced_;
  const bool first_;
  SpanLog* spans_;
  uint64_t* next_op_;
  RoundResult r_;
  std::unique_ptr<nebula::BioDataset> ds_;
  std::vector<Note> notes_;
  std::unique_ptr<IdentifierMap> ids_;
  std::unique_ptr<nebula::NebulaEngine> engine_;
  std::unique_ptr<Stage2Shadow> shadow_;
  nebula::EdgeSet ideal_;
  std::unordered_map<uint64_t, size_t> note_of_;
  std::vector<AnnotationReport> reports_;
};

// ------------------------------------------------------------- output

/// Linear-interpolation quantile (the "type 7" estimator).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = (static_cast<double>(v.size()) - 1.0) * q;
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Shortest text that reads back as exactly `v`: every measured digit.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";  // only after a failed check
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return std::string(buf, end);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--rounds") {
      o.rounds = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  WorkloadDef w;
  if (!LookupWorkload(o.workload, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(o.out_dir, ec);

  SpanLog spans(o.trace), untraced(false);
  uint64_t next_op = 0;
  std::vector<RoundResult> rounds;
  const int64_t start = NowNs();
  const auto more = [&] {
    // A traced run needs a warm untraced round next to a traced one; a
    // timed run, two set-ups for a median.
    const size_t least = o.trace ? 3 : o.rounds > 0 ? 1 : 2;
    if (rounds.size() < least) return true;
    if (o.rounds > 0) return rounds.size() < static_cast<size_t>(o.rounds);
    return static_cast<double>(NowNs() - start) / 1e9 < o.seconds;
  };
  while (more()) {
    // A traced run alternates untraced and traced rounds, starting
    // untraced. Round 1 is the source of the cache counters; it also pays
    // the process warm-up, so the later untraced rounds are the overhead
    // baseline.
    const bool traced = o.trace && rounds.size() % 2 == 1;
    Round round(w, o, traced, rounds.empty(), traced ? &spans : &untraced,
                &next_op);
    rounds.push_back(round.Run());
    const RoundResult& r = rounds.back();
    std::fprintf(stderr,
                 "round %zu%s: setup %.3f s, %llu annotations, %zu "
                 "decisions, %.3f s timed\n",
                 rounds.size(), r.traced ? " (traced)" : "", r.setup_s,
                 static_cast<unsigned long long>(r.annotations),
                 r.decision_ms.size(), r.op_seconds);
    if (!r.errors.empty()) break;
  }

  // Outputs and determinism: every round must have passed its checks and
  // reproduced the first round's seeded counters.
  bool correct = true;
  uint64_t attempted[2] = {0, 0}, failed[2] = {0, 0};
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    for (int t = 0; t < 2; ++t) {
      attempted[t] += r.attempted[t];
      failed[t] += r.failed[t];
    }
    for (const auto& e : r.errors) {
      std::fprintf(stderr, "CHECK FAILED (round %zu): %s\n", i + 1, e.c_str());
      correct = false;
    }
    for (const auto& [k, v] : r.counters.values) {
      const uint64_t want = rounds[0].counters.get(k);
      if (v != want && rounds[0].counters.values.count(k) > 0) {
        std::fprintf(stderr,
                     "CHECK FAILED: counter %s is %llu in round %zu but "
                     "%llu in round 1\n",
                     k.c_str(), static_cast<unsigned long long>(v), i + 1,
                     static_cast<unsigned long long>(want));
        correct = false;
      }
    }
  }
  std::fprintf(stderr,
               "operations: insert attempted %llu failed %llu, decision "
               "attempted %llu failed %llu\n",
               static_cast<unsigned long long>(attempted[0]),
               static_cast<unsigned long long>(failed[0]),
               static_cast<unsigned long long>(attempted[1]),
               static_cast<unsigned long long>(failed[1]));
  const Counters& c = rounds[0].counters;
  std::printf("counters: %s\n", c.Json().c_str());

  std::vector<double> setup_s, generate_s, warm_s, insert_ms, decision_ms,
      command_us, snapshot_ms, checkpoint_bytes, throughput;
  double annotations = 0;
  for (const RoundResult& r : rounds) {
    setup_s.push_back(r.setup_s);
    generate_s.push_back(r.generate_s);
    warm_s.push_back(r.index_warm_s);
  }
  std::vector<const RoundResult*> measured;  // rounds the metrics come from
  for (const RoundResult& r : rounds) {
    if (r.traced == o.trace) measured.push_back(&r);
  }
  for (const RoundResult* r : measured) {
    insert_ms.insert(insert_ms.end(), r->insert_ms.begin(), r->insert_ms.end());
    decision_ms.insert(decision_ms.end(), r->decision_ms.begin(),
                       r->decision_ms.end());
    command_us.insert(command_us.end(), r->command_us.begin(),
                      r->command_us.end());
    snapshot_ms.insert(snapshot_ms.end(), r->snapshot_ms.begin(),
                       r->snapshot_ms.end());
    checkpoint_bytes.insert(checkpoint_bytes.end(),
                            r->checkpoint_bytes.begin(),
                            r->checkpoint_bytes.end());
    annotations += static_cast<double>(r->annotations);
    throughput.push_back(static_cast<double>(r->annotations) / r->op_seconds);
  }

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"annotations_per_s", Median(throughput), "1/s"},
        {"insert_p50_ms", Quantile(insert_ms, 0.50), "ms"},
        {"insert_p95_ms", Quantile(insert_ms, 0.95), "ms"},
        {"peak_rss_mb", rounds[0].peak_rss_mb, "MB"},
        {"expert_tasks_per_annotation",
         Ratio(c.get("tasks_pending_created"), c.get("annotations")), "tasks"},
        {"true_links_found", static_cast<double>(c.get("true_links")),
         "links"},
    };
  } else {
    // Per-annotation layer means over the traced rounds.
    double store = 0, map = 0, adjust = 0, formation = 0, identify = 0,
           submit = 0, compile = 0, execute = 0, merge = 0, shadow = 0;
    for (const RoundResult* r : measured) {
      store += r->store_us;
      map += r->map_us;
      adjust += r->adjust_us;
      formation += r->formation_us;
      identify += r->identify_us;
      submit += r->submit_us;
      compile += r->compile_ns / 1e3;
      execute += r->execute_ns / 1e3;
      merge += r->merge_ns / 1e3;
      shadow += r->shadow_ns;
    }
    const double per = annotations > 0 ? 1.0 / annotations : 0.0;
    // Tracing overhead: median timed seconds of the traced rounds against
    // the warm untraced rounds' (the shadow replay runs outside the timed
    // calls, so it is not counted).
    std::vector<double> traced_s, untraced_s;
    for (size_t i = 1; i < rounds.size(); ++i) {
      (rounds[i].traced ? traced_s : untraced_s).push_back(rounds[i].op_seconds);
    }
    const double overhead =
        100.0 * (Median(traced_s) - Median(untraced_s)) / Median(untraced_s);
    metrics = {
        {"workload.generate_s", Median(generate_s), "s"},
        {"storage.index_warm_s", Median(warm_s), "s"},
        {"stage0.store_us", store * per, "us"},
        {"stage1.map_us", map * per, "us"},
        {"stage1.adjust_us", adjust * per, "us"},
        {"stage1.formation_us", formation * per, "us"},
        {"stage1.queries", Ratio(c.get("queries"), c.get("annotations")),
         "queries"},
        {"stage2.compile_us", compile * per, "us"},
        {"stage2.execute_us", execute * per, "us"},
        {"stage2.merge_us", merge * per, "us"},
        {"stage2.identify_us", identify * per, "us"},
        {"keyword.statements", Ratio(c.get("statements"), c.get("annotations")),
         "statements"},
        {"keyword.memo_hit_ratio", Ratio(c.get("memo_hits"), c.get("statements")),
         "ratio"},
        {"identify.plan_cache_hit_ratio",
         Ratio(c.get("plan_hits"), c.get("plan_lookups")), "ratio"},
        {"storage.rows_examined",
         Ratio(c.get("rows_examined"), c.get("annotations")), "rows"},
        {"identify.candidates",
         Ratio(c.get("candidates"), c.get("annotations")), "candidates"},
        {"identify.true_candidate_ratio",
         Ratio(c.get("true_candidates"), c.get("candidates")), "ratio"},
        {"stage3.submit_us", submit * per, "us"},
        {"verification.command_us", Median(command_us), "us"},
        {"verification.decision_p99_ms", Quantile(decision_ms, 0.99), "ms"},
        {"durability.snapshot_ms", Median(snapshot_ms), "ms"},
        {"durability.snapshots", static_cast<double>(c.get("snapshots")),
         "count"},
        {"durability.wal_appends", static_cast<double>(c.get("wal_appends")),
         "count"},
        {"durability.wal_bytes", static_cast<double>(c.get("wal_bytes")), "B"},
        {"durability.snapshot_bytes", Median(checkpoint_bytes), "B"},
        {"disk_bytes_per_annotation",
         Ratio(c.get("wal_bytes") + c.get("snapshot_bytes"),
               c.get("annotations")),
         "B"},
        {"acg.edges", static_cast<double>(c.get("acg_edges")), "count"},
        {"trace.overhead_pct", overhead, "%"},
    };
    const std::string path = o.out_dir + "/spans-" + o.workload + "-seed" +
                              std::to_string(o.seed) + "-" +
                              std::to_string(getpid()) + ".tsv";
    if (!spans.Write(path)) {
      std::fprintf(stderr, "CHECK FAILED: cannot write %s\n", path.c_str());
      correct = false;
    }
    std::fprintf(stderr, "spans: %zu written to %s\nself time per span "
                         "(ms, traced rounds):\n", spans.size(), path.c_str());
    for (const auto& [name, ns] : spans.SelfTimes()) {
      std::fprintf(stderr, "  %-22s %12.3f\n", name.c_str(),
                   static_cast<double>(ns) / 1e6);
    }
    std::fprintf(stderr, "shadow Stage-2 replay: %.3f s (outside timed calls)\n",
                 shadow / 1e9);
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted[0] + attempted[1]);
  json += ", \"failed\": " + std::to_string(failed[0] + failed[1]);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace uniprot_bench

int main(int argc, char** argv) { return uniprot_bench::Main(argc, argv); }

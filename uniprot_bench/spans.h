#ifndef UNIPROT_BENCH_SPANS_H_
#define UNIPROT_BENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace uniprot_bench {

/// Nanoseconds on the steady clock since the process started timing.
int64_t NowNs();

/// One timed call: a layer function the driver called (or a phase the
/// engine reported for it). `op` is the id shared by every span of one
/// benchmark operation; parent 0 marks the operation's root span.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  uint64_t op = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span log of a traced run, written out once the run ends.
/// A disabled log records nothing and every call is a no-op returning 0.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Records a finished span; returns its id (0 when disabled).
  uint32_t Add(const std::string& name, uint32_t parent, uint64_t op,
               int64_t start_ns, int64_t end_ns);

  /// Sets the end of a span recorded before its children were timed.
  void SetEnd(uint32_t id, int64_t end_ns) {
    if (id != 0) spans_[id - 1].end_ns = end_ns;
  }

  /// Self time per span name in nanoseconds: each span's duration less
  /// the durations of its direct children.
  std::map<std::string, int64_t> SelfTimes() const;

  /// Writes one tab-separated line per span:
  /// op, id, parent, name, start_ns, end_ns.
  bool Write(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace uniprot_bench

#endif  // UNIPROT_BENCH_SPANS_H_

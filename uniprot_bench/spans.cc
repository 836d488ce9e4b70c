#include "spans.h"

#include <fstream>
#include <unordered_map>

namespace uniprot_bench {

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

uint32_t SpanLog::Add(const std::string& name, uint32_t parent, uint64_t op,
                      int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return 0;
  const uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
  spans_.push_back({id, parent, op, name, start_ns, end_ns});
  return id;
}

std::map<std::string, int64_t> SpanLog::SelfTimes() const {
  std::unordered_map<uint32_t, int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, int64_t> out;
  for (const Span& s : spans_) {
    out[s.name] += s.end_ns - s.start_ns - child_ns[s.id];
  }
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream f(path);
  f << "op\tid\tparent\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans_) {
    f << s.op << '\t' << s.id << '\t' << s.parent << '\t' << s.name << '\t'
      << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(f);
}

}  // namespace uniprot_bench

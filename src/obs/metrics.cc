#include "obs/metrics.h"

#include <algorithm>
#include <bit>

#include "common/obs_hooks.h"

namespace nebula {
namespace obs {

uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

size_t Histogram::BucketIndex(uint64_t value_us) {
  if (value_us <= 1) return 0;
  const size_t idx = static_cast<size_t>(std::bit_width(value_us - 1));
  return std::min(idx, kNumBuckets - 1);
}

void Histogram::Observe(uint64_t value_us) {
  // Stripe by thread so concurrent pool workers land on distinct shards
  // (and distinct cache lines — Shard is alignas(64)).
  Shard& shard = shards_[CurrentThreadId() % kNumShards];
  shard.buckets[BucketIndex(value_us)].fetch_add(1,
                                                 std::memory_order_relaxed);
  shard.sum.fetch_add(value_us, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::Snapshot::Delta(
    const Snapshot& baseline) const {
  Snapshot delta;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    delta.buckets[b] =
        buckets[b] >= baseline.buckets[b] ? buckets[b] - baseline.buckets[b]
                                          : 0;
    delta.count += delta.buckets[b];
  }
  delta.sum = sum >= baseline.sum ? sum - baseline.sum : 0;
  return delta;
}

uint64_t Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  double below = 0;  // observations in buckets before the current one
  for (size_t b = 0; b < kNumBuckets; ++b) {
    const uint64_t n = buckets[b];
    if (n == 0) continue;
    if (below + static_cast<double>(n) >= rank) {
      if (b == kNumBuckets - 1) {
        // The overflow bucket has no finite upper bound; saturate to the
        // largest finite one rather than inventing a value.
        return BucketUpperBound(kNumFinite - 1);
      }
      const double lower =
          b == 0 ? 0.0 : static_cast<double>(BucketUpperBound(b - 1));
      const double upper = static_cast<double>(BucketUpperBound(b));
      const double fraction =
          std::clamp((rank - below) / static_cast<double>(n), 0.0, 1.0);
      return static_cast<uint64_t>(lower + fraction * (upper - lower) + 0.5);
    }
    below += static_cast<double>(n);
  }
  return BucketUpperBound(kNumFinite - 1);
}

Histogram::Snapshot Histogram::GetSnapshot() const {
  Snapshot snap;
  for (const Shard& shard : shards_) {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      const uint64_t n = shard.buckets[b].load(std::memory_order_relaxed);
      snap.buckets[b] += n;
      snap.count += n;
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  return snap;
}

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

namespace {

/// Serialized sorted label set — the instrument key within a family.
std::string LabelKey(const Labels& labels) {
  std::string key;
  for (const auto& [name, value] : labels) {
    key += name;
    key += '=';
    key += value;
    key += '\x1f';
  }
  return key;
}

/// Detached instruments returned on family-type misuse: never exported,
/// but always safe to poke.
Counter* DummyCounter() {
  static Counter* c = new Counter();
  return c;
}
Gauge* DummyGauge() {
  static Gauge* g = new Gauge();
  return g;
}
Histogram* DummyHistogram() {
  static Histogram* h = new Histogram();
  return h;
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instruments cached across the process (including
  // by thread-pool workers running at static-destruction time) must stay
  // valid forever.
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

MetricsRegistry::Instrument* MetricsRegistry::GetInstrument(
    const std::string& name, MetricType type, Labels labels,
    const std::string& help) {
  std::sort(labels.begin(), labels.end());
  MutexLock lock(mutex_);
  auto [fit, family_created] = families_.try_emplace(name);
  FamilyImpl& family = fit->second;
  if (family_created) {
    family.type = type;
    family.help = help;
  } else if (family.type != type) {
    return nullptr;  // type misuse: caller hands out a dummy
  }
  auto [iit, created] = family.instruments.try_emplace(LabelKey(labels));
  Instrument& inst = iit->second;
  if (created) {
    inst.labels = std::move(labels);
    switch (type) {
      case MetricType::kCounter:
        inst.counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        inst.gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        inst.histogram = std::make_unique<Histogram>();
        break;
    }
  }
  return &inst;
}

Counter* MetricsRegistry::GetCounter(const std::string& name, Labels labels,
                                     const std::string& help) {
  Instrument* inst =
      GetInstrument(name, MetricType::kCounter, std::move(labels), help);
  return inst == nullptr ? DummyCounter() : inst->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, Labels labels,
                                 const std::string& help) {
  Instrument* inst =
      GetInstrument(name, MetricType::kGauge, std::move(labels), help);
  return inst == nullptr ? DummyGauge() : inst->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         Labels labels,
                                         const std::string& help) {
  Instrument* inst =
      GetInstrument(name, MetricType::kHistogram, std::move(labels), help);
  return inst == nullptr ? DummyHistogram() : inst->histogram.get();
}

std::vector<MetricsRegistry::Family> MetricsRegistry::Snapshot() const {
  MutexLock lock(mutex_);
  std::vector<Family> out;
  out.reserve(families_.size());
  for (const auto& [name, impl] : families_) {
    Family family;
    family.name = name;
    family.help = impl.help;
    family.type = impl.type;
    family.samples.reserve(impl.instruments.size());
    for (const auto& [key, inst] : impl.instruments) {
      Sample sample;
      sample.labels = inst.labels;
      switch (impl.type) {
        case MetricType::kCounter:
          sample.counter_value = inst.counter->Value();
          break;
        case MetricType::kGauge:
          sample.gauge_value = inst.gauge->Value();
          break;
        case MetricType::kHistogram:
          sample.histogram = inst.histogram->GetSnapshot();
          break;
      }
      family.samples.push_back(std::move(sample));
    }
    out.push_back(std::move(family));
  }
  return out;
}

size_t MetricsRegistry::num_families() const {
  MutexLock lock(mutex_);
  return families_.size();
}

// ---------------------------------------------------------------------------
// common-layer hook registration.
//
// `common` sits below `obs` in the layer DAG, so ThreadPool and Logger
// cannot include obs headers; they emit through the function-pointer
// hooks in common/obs_hooks.h instead. Linking obs into a binary pulls
// in this translation unit (anything that touches MetricsRegistry or an
// exporter references it), and this static registrar binds the hooks
// before main() runs. Without obs the hooks stay null and the pool /
// logger record nothing — exactly the old NEBULA_OBS=OFF behavior.

namespace {

/// Pool instruments bound once at registration; the sink callbacks are
/// captureless lambdas (plain function pointers) reading these globals.
struct PoolInstruments {
  Counter* submitted = nullptr;
  Counter* executed = nullptr;
  Gauge* depth = nullptr;
  Histogram* wait_us = nullptr;
};
PoolInstruments g_pool;
hooks::PoolEventSink g_pool_sink;

struct HookRegistrar {
  HookRegistrar() {
    // The thread ordinal is not gated on kEnabled: the NEBULA_OBS=OFF
    // build also prints real ordinals in log headers (CurrentThreadId is
    // a plain utility, not instrumentation).
    hooks::SetThreadOrdinalProvider(&CurrentThreadId);
    if constexpr (kEnabled) {
      auto& registry = MetricsRegistry::Global();
      g_pool.submitted = registry.GetCounter(
          "nebula_pool_tasks_submitted_total", {},
          "Tasks enqueued on any ThreadPool instance");
      g_pool.executed = registry.GetCounter(
          "nebula_pool_tasks_executed_total", {},
          "Tasks whose callable finished executing");
      g_pool.depth = registry.GetGauge(
          "nebula_pool_queue_depth", {},
          "Tasks queued but not yet claimed by a worker");
      g_pool.wait_us = registry.GetHistogram(
          "nebula_pool_queue_wait_us", {},
          "Time a task spent queued before a worker picked it up");
      g_pool_sink.task_submitted = [](size_t queue_depth) {
        g_pool.submitted->Increment();
        g_pool.depth->Set(static_cast<int64_t>(queue_depth));
      };
      g_pool_sink.task_dequeued = [](size_t queue_depth,
                                     uint64_t queue_wait_us) {
        g_pool.depth->Set(static_cast<int64_t>(queue_depth));
        g_pool.wait_us->Observe(queue_wait_us);
      };
      g_pool_sink.task_executed = [] { g_pool.executed->Increment(); };
      hooks::SetPoolEventSink(&g_pool_sink);
    }
  }
};
const HookRegistrar g_hook_registrar;

}  // namespace

}  // namespace obs
}  // namespace nebula

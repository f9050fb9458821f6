// Process-wide metrics registry: the always-on half of the telemetry
// subsystem (the on-demand half is span tracing, src/telemetry/trace.h).
//
// Three instrument kinds, registered by name and dumpable as one JSON
// object (every BENCH_*.json embeds it as its `telemetry` block):
//
//   Counter   — monotonically increasing count (lock-free atomic add).
//   Gauge     — last-written value (lock-free atomic store of a double).
//   Histogram — log-bucketed latency/value distribution with percentile
//               extraction (p50/p90/p99/p999). Recording is a handful of
//               relaxed atomic ops on a fixed bucket array: cheap enough to
//               stay on in production paths, which is the point — the
//               serving-mode SLO work optimizes exactly these percentiles.
//
// Usage pattern at an instrumentation site (the lookup happens once, the hot
// path is only the atomic ops):
//
//   static telemetry::Counter& retired =
//       *telemetry::MetricsRegistry::Global().GetCounter("ebr.retired");
//   retired.Add();
//
// A count the engine owns lives with its owner (EngineStats, TenantReport),
// never here as well: the registry keeps distributions and the counts of
// events no engine owns. A histogram's sample count is not a count.
//
// Time histograms record NANOSECONDS by convention and carry a `_ns` name
// suffix; Histogram itself is unit-agnostic over uint64 values.
//
// Thread safety: registration takes a mutex (once per site); instrument
// pointers are stable for the registry's lifetime; all recording is
// lock-free atomics. Nothing is ever zeroed: a phase's count is the
// difference of two readings.
#ifndef SRC_TELEMETRY_METRICS_H_
#define SRC_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nsf {
namespace telemetry {

class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }
  double value() const {
    uint64_t bits = bits_.load(std::memory_order_relaxed);
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<uint64_t> bits_{0};
};

// Log-bucketed histogram over uint64 values (HdrHistogram-style): values
// below 2^(kSubBits+1) get exact buckets; above that, each power-of-two
// octave is split into 2^kSubBits sub-buckets, bounding the relative error
// of any reported quantile by 1/2^kSubBits (12.5% at kSubBits=3), while the
// whole 64-bit range fits one fixed array of atomics.
class Histogram {
 public:
  static constexpr uint32_t kSubBits = 3;
  static constexpr uint32_t kSubCount = 1u << kSubBits;  // sub-buckets per octave
  // Exact buckets [0, 2*kSubCount) + one run of kSubCount per octave above.
  static constexpr uint32_t kNumBuckets = 2 * kSubCount + (63 - kSubBits) * kSubCount;

  void Record(uint64_t value);
  void RecordSeconds(double seconds) {  // convention: time histograms store ns
    Record(seconds <= 0 ? 0 : static_cast<uint64_t>(seconds * 1e9));
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const;  // 0 when empty
  uint64_t max() const;

  // Value at quantile q in [0,1] (0.5 = median): the representative value
  // (bucket midpoint) of the bucket holding the ceil(q*count)-th recording.
  // 0 when empty. Approximation error is bounded by the bucket's relative
  // width (<= 1/kSubCount above the exact range, exact below it).
  uint64_t Percentile(double q) const;

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    uint64_t p50 = 0;
    uint64_t p90 = 0;
    uint64_t p99 = 0;
    uint64_t p999 = 0;
  };
  // One coherent-enough view for reporting: buckets are read individually
  // (relaxed), so a snapshot taken during concurrent recording may be off by
  // in-flight recordings — fine for telemetry, never for correctness.
  Snapshot TakeSnapshot() const;

  const std::string& name() const { return name_; }

  // Bucket mapping, exposed for tests: index for a value, and the
  // representative (midpoint) value reported for that bucket.
  static uint32_t BucketFor(uint64_t value);
  static uint64_t BucketMidpoint(uint32_t bucket);

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
};

// Name -> instrument map. One process-wide instance (Global()); tests may
// construct private registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  // Register-or-get; returned pointers are stable for the registry's
  // lifetime. A name registers at most one kind: requesting an existing name
  // as a different kind returns null (callers treat that as a programming
  // error; it cannot happen with distinct metric names).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,max,
  // p50,p90,p99,p999}}} — keys sorted by name (std::map iteration order), so
  // the shape is deterministic even though the values are live.
  std::string DumpJson() const;

  size_t size() const;

 private:
  mutable std::mutex mu_;  // guards the maps only, never the instruments
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace telemetry
}  // namespace nsf

#endif  // SRC_TELEMETRY_METRICS_H_

#include "src/telemetry/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/support/str.h"

namespace nsf {
namespace telemetry {

namespace {

void AtomicMin(std::atomic<uint64_t>* target, uint64_t v) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (v < cur && !target->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>* target, uint64_t v) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (v > cur && !target->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

// --- Histogram ---

uint32_t Histogram::BucketFor(uint64_t value) {
  if (value < 2 * kSubCount) {
    return static_cast<uint32_t>(value);  // exact low range
  }
  uint32_t msb = 63 - static_cast<uint32_t>(__builtin_clzll(value));
  uint32_t shift = msb - kSubBits;  // >= 1 here
  uint32_t sub = static_cast<uint32_t>(value >> shift) & (kSubCount - 1);
  return 2 * kSubCount + (shift - 1) * kSubCount + sub;
}

uint64_t Histogram::BucketMidpoint(uint32_t bucket) {
  if (bucket < 2 * kSubCount) {
    return bucket;  // exact buckets represent themselves
  }
  uint32_t shift = (bucket - 2 * kSubCount) / kSubCount + 1;
  uint32_t sub = (bucket - 2 * kSubCount) % kSubCount;
  uint64_t lower = static_cast<uint64_t>(kSubCount + sub) << shift;
  uint64_t width = uint64_t{1} << shift;
  return lower + width / 2;
}

void Histogram::Record(uint64_t value) {
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

uint64_t Histogram::min() const {
  uint64_t v = min_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0 : v;
}

uint64_t Histogram::max() const { return max_.load(std::memory_order_relaxed); }

uint64_t Histogram::Percentile(double q) const {
  uint64_t total = count();
  if (total == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t seen = 0;
  for (uint32_t b = 0; b < kNumBuckets; b++) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Clamp the midpoint into the observed range so tails never report a
      // value outside [min, max] (the last bucket may be mostly empty).
      return std::clamp(BucketMidpoint(b), min(), max());
    }
  }
  return max();  // racing recorders bumped count_ before their bucket landed
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot s;
  s.count = count();
  s.sum = sum();
  s.min = min();
  s.max = max();
  s.p50 = Percentile(0.50);
  s.p90 = Percentile(0.90);
  s.p99 = Percentile(0.99);
  s.p999 = Percentile(0.999);
  return s;
}

// --- MetricsRegistry ---

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never destroyed
  return *instance;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (gauges_.count(name) != 0 || histograms_.count(name) != 0) {
    return nullptr;
  }
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot.reset(new Counter(name));
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || histograms_.count(name) != 0) {
    return nullptr;
  }
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot.reset(new Gauge(name));
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0) {
    return nullptr;
  }
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot.reset(new Histogram(name));
  }
  return slot.get();
}

std::string MetricsRegistry::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += StrFormat("%s\"%s\":%llu", first ? "" : ",", name.c_str(),
                     static_cast<unsigned long long>(c->value()));
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += StrFormat("%s\"%s\":%.6f", first ? "" : ",", name.c_str(), g->value());
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    Histogram::Snapshot s = h->TakeSnapshot();
    out += StrFormat(
        "%s\"%s\":{\"count\":%llu,\"sum\":%llu,\"min\":%llu,\"max\":%llu,"
        "\"p50\":%llu,\"p90\":%llu,\"p99\":%llu,\"p999\":%llu}",
        first ? "" : ",", name.c_str(), static_cast<unsigned long long>(s.count),
        static_cast<unsigned long long>(s.sum), static_cast<unsigned long long>(s.min),
        static_cast<unsigned long long>(s.max), static_cast<unsigned long long>(s.p50),
        static_cast<unsigned long long>(s.p90), static_cast<unsigned long long>(s.p99),
        static_cast<unsigned long long>(s.p999));
    first = false;
  }
  out += "}}";
  return out;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace telemetry
}  // namespace nsf

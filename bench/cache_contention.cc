// Code-cache read-path contention: reader threads hammer warm keys through
// CodeCache::Lookup, the wait-free epoch-protected index probe. Two
// scenarios per thread count:
//
//   steady — warm hits only over a serving-sized key population (4096 cached
//            modules). Isolates the per-op read-path cost: pin, two acquire
//            loads, ref copy — O(1) regardless of population.
//   churn  — same readers, plus one writer periodically retiring and
//            republishing every key (Clear + republish, the eviction /
//            tier-up shape). Readers never block on the writer: lookups that
//            land in the Clear -> republish window complete as nulls.
//
// Every lookup is one op, hit or null, so ops/s compares legs on equal
// terms; the null rate says how much of a churn leg fell in the window.
// lock_waits must stay exactly 0 on every leg. The cache is built with a
// single shard so the writer's lock is the one lock every key shares — any
// reader that touched it would show up as a lock wait. On a single-core
// host threads time-slice, so the signal is the per-op read-path cost.
//
// Emits BENCH_cache_contention.json:
//   {"cpus":N,"legs":[{scenario,threads,ops,hits,nulls,seconds,ops_per_sec,
//    null_rate,p50_ns,p99_ns,lock_waits},...]}
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/builder/builder.h"

namespace nsf {
namespace {

// The quickstart kernel — compiled once; every cache key republishes the
// same CompiledModuleRef so legs measure cache traffic, not compilation.
Module SumSquaresModule() {
  ModuleBuilder mb("sum_squares");
  auto& f = mb.AddFunction("sum_squares", {ValType::kI32}, {ValType::kI32});
  uint32_t acc = f.AddLocal(ValType::kI32);
  uint32_t i = f.AddLocal(ValType::kI32);
  f.I32Const(0).LocalSet(acc);
  f.ForI32Dyn(i, 1, 0, 1, [&] {
    f.LocalGet(acc).LocalGet(i).LocalGet(i).I32Mul().I32Add().LocalSet(acc);
  });
  f.LocalGet(acc);
  return mb.Build();
}

constexpr int kKeys = 4096;
constexpr uint64_t kFingerprint = 0x5eed5eed5eed5eedULL;

uint64_t KeyHash(int k) {
  // Distinct, well-spread hashes; with one shard they all share its lock.
  return 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(k + 1);
}

struct Leg {
  const char* scenario = "";
  int threads = 0;
  uint64_t hits = 0;
  uint64_t nulls = 0;  // lookups that landed between Clear and republish
  double seconds = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t lock_waits = 0;

  uint64_t ops() const { return hits + nulls; }
  double ops_per_sec() const { return seconds > 0 ? static_cast<double>(ops()) / seconds : 0; }
  double null_rate() const {
    return ops() > 0 ? static_cast<double>(nulls) / static_cast<double>(ops()) : 0;
  }
};

uint64_t Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

void PublishAllKeys(engine::CodeCache& cache, const engine::CompiledModuleRef& module) {
  for (int k = 0; k < kKeys; k++) {
    engine::CompileInfo info;
    cache.GetOrCompile(KeyHash(k), kFingerprint, [&] { return module; }, &info);
  }
}

Leg RunLeg(const char* scenario, bool with_writer, int threads,
           const engine::CompiledModuleRef& module, double duration_seconds) {
  engine::CodeCache cache(/*shard_count=*/1);
  PublishAllKeys(cache, module);
  cache.ResetTelemetry();

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<uint64_t> hit_counts(static_cast<size_t>(threads), 0);
  std::vector<uint64_t> null_counts(static_cast<size_t>(threads), 0);
  // Per-op latency, sampled 1-in-16 so the clock reads don't dominate.
  std::vector<std::vector<uint64_t>> samples(static_cast<size_t>(threads));
  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; t++) {
    readers.emplace_back([&, t] {
      samples[static_cast<size_t>(t)].reserve(1 << 16);
      while (!go.load(std::memory_order_acquire)) {
      }
      uint64_t n = 0;
      uint64_t hits = 0;
      uint64_t nulls = 0;
      // Walk the keys in a scrambled order (an odd stride cycles through the
      // power-of-two key count): serving traffic doesn't arrive in map
      // order, and neither should we.
      uint32_t cursor = static_cast<uint32_t>(t) * 2654435761u;
      while (!stop.load(std::memory_order_relaxed)) {
        cursor += 2654435761u;  // odd stride => full cycle over kKeys
        const uint64_t h = KeyHash(static_cast<int>(cursor % kKeys));
        if ((n & 15) == 0) {
          const auto t0 = std::chrono::steady_clock::now();
          engine::CompiledModuleRef code = cache.Lookup(h, kFingerprint);
          const auto t1 = std::chrono::steady_clock::now();
          (code != nullptr ? hits : nulls)++;
          samples[static_cast<size_t>(t)].push_back(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
        } else {
          engine::CompiledModuleRef code = cache.Lookup(h, kFingerprint);
          (code != nullptr ? hits : nulls)++;
        }
        n++;
      }
      hit_counts[static_cast<size_t>(t)] = hits;
      null_counts[static_cast<size_t>(t)] = nulls;
    });
  }
  std::thread writer;
  if (with_writer) {
    writer = std::thread([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_relaxed)) {
        // Retire the whole index (every node + the table goes through the
        // EBR domain) and republish — eviction/republish churn at a
        // realistic cadence rather than a starvation loop.
        cache.Clear();
        PublishAllKeys(cache, module);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  const auto bench_t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) {
    r.join();
  }
  if (writer.joinable()) {
    writer.join();
  }

  Leg leg;
  leg.scenario = scenario;
  leg.threads = threads;
  leg.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - bench_t0).count();
  for (uint64_t c : hit_counts) {
    leg.hits += c;
  }
  for (uint64_t c : null_counts) {
    leg.nulls += c;
  }
  std::vector<uint64_t> all;
  for (const auto& s : samples) {
    all.insert(all.end(), s.begin(), s.end());
  }
  std::sort(all.begin(), all.end());
  leg.p50_ns = Percentile(all, 0.50);
  leg.p99_ns = Percentile(all, 0.99);
  leg.lock_waits = cache.lock_waits();
  return leg;
}

}  // namespace
}  // namespace nsf

int main() {
  using namespace nsf;
  const double kLegSeconds = 0.3;
  const std::vector<int> kThreads = {1, 2, 4, 8, 16};
  const unsigned cpus = std::thread::hardware_concurrency();

  // One real compile; after that the engine is only a ref holder.
  engine::EngineConfig config;
  config.cache_dir = "";
  engine::Engine eng(config);
  Module m = SumSquaresModule();
  engine::CompiledModuleRef module = eng.Compile(m, CodegenOptions::ChromeV8());
  if (module == nullptr || !module->ok) {
    fprintf(stderr, "!! seed compile failed\n");
    return 1;
  }

  std::string legs_json;
  for (const char* scenario : {"steady", "churn"}) {
    const bool with_writer = std::string(scenario) == "churn";
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"threads", "Mops/s", "null rate", "p50 ns", "p99 ns", "lock_waits"});
    for (int t : kThreads) {
      Leg leg = RunLeg(scenario, with_writer, t, module, kLegSeconds);
      rows.push_back({StrFormat("%d", t), StrFormat("%.2f", leg.ops_per_sec() / 1e6),
                      StrFormat("%.4f", leg.null_rate()),
                      StrFormat("%llu", (unsigned long long)leg.p50_ns),
                      StrFormat("%llu", (unsigned long long)leg.p99_ns),
                      StrFormat("%llu", (unsigned long long)leg.lock_waits)});
      legs_json += StrFormat(
          "%s{\"scenario\":\"%s\",\"threads\":%d,\"ops\":%llu,\"hits\":%llu,"
          "\"nulls\":%llu,\"seconds\":%.4f,\"ops_per_sec\":%.1f,\"null_rate\":%.6f,"
          "\"p50_ns\":%llu,\"p99_ns\":%llu,\"lock_waits\":%llu}",
          legs_json.empty() ? "" : ",", leg.scenario, leg.threads,
          (unsigned long long)leg.ops(), (unsigned long long)leg.hits,
          (unsigned long long)leg.nulls, leg.seconds, leg.ops_per_sec(), leg.null_rate(),
          (unsigned long long)leg.p50_ns, (unsigned long long)leg.p99_ns,
          (unsigned long long)leg.lock_waits);
    }
    printf("cache_contention [%s]: wait-free warm-hit read path\n%s\n", scenario,
           RenderTable(rows).c_str());
  }

  WriteBenchJson("cache_contention",
                 StrFormat("{\"cpus\":%u,\"legs\":[%s]}", cpus, legs_json.c_str()), &eng);
  return 0;
}

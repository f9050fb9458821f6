// Shared plumbing for the bench programs: figures and sim_throughput.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "nsf_build_id.h"
#include "src/engine/engine.h"
#include "src/polybench/polybench.h"
#include "src/support/str.h"
#include "src/telemetry/metrics.h"

namespace nsf {

// One Engine per bench program: every compile in the process goes through its
// content-addressed code cache, and WriteBenchJson reports its stats as the
// engine_stats block of every BENCH_<name>.json. It has no disk tier, so an
// exported NSF_CACHE_DIR cannot turn a compile into a disk hit and change
// what a program writes.
inline engine::Engine& SharedEngine() {
  static engine::Engine instance([] {
    engine::EngineConfig config;
    config.cache_dir = "";
    return config;
  }());
  return instance;
}

inline std::vector<WorkloadSpec> AllPolybench() {
  std::vector<WorkloadSpec> out;
  for (const std::string& name : PolybenchKernelNames()) {
    out.push_back(PolybenchSpec(name));
  }
  return out;
}

// --- Machine-readable JSON mirrors of the table output ---
// Benches write BENCH_<name>.json next to their ASCII tables so results can
// be diffed across PRs (and consumed by trajectory tooling).

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

// The shared engine's aggregate counters as a JSON object.
inline std::string EngineStatsJson(const engine::EngineStats& s) {
  return StrFormat(
      "{\"cache_hits\":%llu,\"cache_misses\":%llu,\"compiles\":%llu,"
      "\"compile_joins\":%llu,\"tier_warmups\":%llu,\"profile_disk_loads\":%llu,"
      "\"lock_waits\":%llu,"
      "\"lock_wait_seconds\":%.6f,\"compile_seconds\":%.6f,"
      "\"compile_seconds_saved\":%.6f,"
      "\"disk_hits\":%llu,\"disk_misses\":%llu,\"disk_evictions\":%llu,"
      "\"disk_load_failures\":%llu,\"disk_stores\":%llu,"
      "\"deserialize_seconds\":%.6f,\"serialize_seconds\":%.6f,"
      "\"verify_rejects\":%llu,"
      "\"tier_swaps\":%llu,\"background_recompiles\":%llu}",
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.cache_misses),
      static_cast<unsigned long long>(s.compiles),
      static_cast<unsigned long long>(s.compile_joins),
      static_cast<unsigned long long>(s.tier_warmups),
      static_cast<unsigned long long>(s.profile_disk_loads),
      static_cast<unsigned long long>(s.lock_waits), s.lock_wait_seconds, s.compile_seconds,
      s.compile_seconds_saved, static_cast<unsigned long long>(s.disk_hits),
      static_cast<unsigned long long>(s.disk_misses),
      static_cast<unsigned long long>(s.disk_evictions),
      static_cast<unsigned long long>(s.disk_load_failures),
      static_cast<unsigned long long>(s.disk_stores), s.deserialize_seconds,
      s.serialize_seconds, static_cast<unsigned long long>(s.verify_rejects),
      static_cast<unsigned long long>(s.tier_swaps),
      static_cast<unsigned long long>(s.background_recompiles));
}

// The machine and build that wrote a JSON, as nsfbench reports them: its
// wall-clock fields compare only between equal host blocks.
inline std::string HostJson() {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  return StrFormat(
      "{\"nproc\":%u,\"cpu_model\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"source_fingerprint\":\"%016llx\"}",
      std::thread::hardware_concurrency(), JsonEscape(cpu_model).c_str(),
      JsonEscape(NSF_BENCH_COMPILER).c_str(), JsonEscape(NSF_BENCH_BUILD_TYPE).c_str(),
      static_cast<unsigned long long>(kNsfSourceFingerprint));
}

// The process-wide metrics registry (counters, gauges, latency histograms
// with p50/p90/p99/p999) as one JSON object — every bench JSON embeds it as
// its telemetry block next to engine_stats.
inline std::string TelemetryJson() { return telemetry::MetricsRegistry::Global().DumpJson(); }

// Writes BENCH_<name>.json in the working directory. `json` must be a JSON
// object; the shared engine's stats are injected as its engine_stats key so
// every bench JSON reports cache hits/misses and compile seconds saved, the
// metrics registry as its telemetry key (latency percentiles for
// compile/run/disk paths), and HostJson() as its host key.
inline bool WriteBenchJson(const std::string& bench_name, const std::string& json) {
  std::string payload = json;
  if (!payload.empty() && payload.front() == '{') {
    std::string stats = "\"engine_stats\":" + EngineStatsJson(SharedEngine().Stats()) +
                        ",\"telemetry\":" + TelemetryJson() + ",\"host\":" + HostJson();
    bool empty_object = payload.find_first_not_of(" \t\n", 1) == payload.find('}');
    payload = "{" + stats + (empty_object ? "" : ",") + payload.substr(1);
  }
  std::string path = "BENCH_" + bench_name + ".json";
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "!! cannot write %s\n", path.c_str());
    return false;
  }
  fputs(payload.c_str(), f);
  fputc('\n', f);
  fclose(f);
  fprintf(stderr, "  wrote %s\n", path.c_str());
  return true;
}

}  // namespace nsf

#endif  // BENCH_BENCH_UTIL_H_

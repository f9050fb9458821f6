// Shared plumbing for the per-table/figure bench binaries.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/harness/harness.h"
#include "src/polybench/polybench.h"
#include "src/spec/spec.h"
#include "src/support/str.h"
#include "src/telemetry/metrics.h"

namespace nsf {

// One Engine per bench binary: every compile in the process goes through its
// content-addressed code cache, and WriteBenchJson reports its stats as the
// engine_stats block of every BENCH_<name>.json.
inline engine::Engine& SharedEngine() {
  static engine::Engine instance;
  return instance;
}

// Harness over the shared engine (reference-output cache included).
inline BenchHarness& SharedHarness() {
  static BenchHarness instance(&SharedEngine());
  return instance;
}

struct SuiteRow {
  std::string name;
  std::map<std::string, RunResult> by_profile;  // profile_name -> result
};

// Runs every workload in `specs` under each profile; validates JIT profiles
// against the native reference.
inline std::vector<SuiteRow> RunSuite(const std::vector<WorkloadSpec>& specs,
                                      const std::vector<CodegenOptions>& profiles,
                                      bool verbose = true) {
  BenchHarness& harness = SharedHarness();
  std::vector<SuiteRow> rows;
  for (const WorkloadSpec& spec : specs) {
    SuiteRow row;
    row.name = spec.name;
    for (const CodegenOptions& opts : profiles) {
      RunResult r = harness.MeasureValidated(spec, opts);
      if (!r.ok) {
        fprintf(stderr, "!! %s under %s: %s\n", spec.name.c_str(), opts.profile_name.c_str(),
                r.error.c_str());
      } else if (!r.validated) {
        fprintf(stderr, "!! %s under %s: output mismatch\n", spec.name.c_str(),
                opts.profile_name.c_str());
      }
      row.by_profile[opts.profile_name] = std::move(r);
    }
    if (verbose) {
      fprintf(stderr, "  ran %s\n", spec.name.c_str());
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

inline std::vector<WorkloadSpec> AllPolybench(int scale = 1) {
  std::vector<WorkloadSpec> out;
  for (const std::string& name : PolybenchKernelNames()) {
    out.push_back(PolybenchSpec(name, scale));
  }
  return out;
}

inline std::vector<WorkloadSpec> AllSpec(int scale = 1) {
  std::vector<WorkloadSpec> out;
  for (const std::string& name : SpecWorkloadNames()) {
    out.push_back(SpecWorkload(name, scale));
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

// One run's counters as a JSON object.
inline std::string RunResultJson(const RunResult& r) {
  return StrFormat(
      "{\"ok\":%s,\"validated\":%s,\"cache_hit\":%s,\"seconds\":%.9f,\"cycles\":%llu,"
      "\"instructions\":%llu,\"loads\":%llu,\"stores\":%llu,\"branches\":%llu,"
      "\"cond_branches\":%llu,\"taken_branches\":%llu,\"l1i_misses\":%llu,"
      "\"l1d_misses\":%llu,\"l2_misses\":%llu,\"code_bytes\":%llu}",
      r.ok ? "true" : "false", r.validated ? "true" : "false",
      r.cache_hit ? "true" : "false", r.seconds,
      static_cast<unsigned long long>(r.counters.cycles()),
      static_cast<unsigned long long>(r.counters.instructions_retired),
      static_cast<unsigned long long>(r.counters.loads_retired),
      static_cast<unsigned long long>(r.counters.stores_retired),
      static_cast<unsigned long long>(r.counters.branches_retired),
      static_cast<unsigned long long>(r.counters.cond_branches_retired),
      static_cast<unsigned long long>(r.counters.taken_branches),
      static_cast<unsigned long long>(r.counters.l1i_misses),
      static_cast<unsigned long long>(r.counters.l1d_misses),
      static_cast<unsigned long long>(r.counters.l2_misses),
      static_cast<unsigned long long>(r.compile.code_bytes));
}

// Serializes a whole suite run: {"workloads": {name: {profile: counters}}}.
inline std::string SuiteRowsJson(const std::vector<SuiteRow>& rows) {
  std::string out = "{\"workloads\":{";
  bool first_row = true;
  for (const SuiteRow& row : rows) {
    if (!first_row) {
      out += ",";
    }
    first_row = false;
    out += "\"" + JsonEscape(row.name) + "\":{";
    bool first_profile = true;
    for (const auto& [profile, result] : row.by_profile) {
      if (!first_profile) {
        out += ",";
      }
      first_profile = false;
      out += "\"" + JsonEscape(profile) + "\":" + RunResultJson(result);
    }
    out += "}";
  }
  out += "}}";
  return out;
}

// The shared engine's aggregate counters as a JSON object.
inline std::string EngineStatsJson(const engine::EngineStats& s) {
  return StrFormat(
      "{\"cache_hits\":%llu,\"cache_misses\":%llu,\"compiles\":%llu,"
      "\"compile_joins\":%llu,\"tier_warmups\":%llu,\"lock_waits\":%llu,"
      "\"lock_wait_seconds\":%.6f,\"compile_seconds\":%.6f,"
      "\"compile_seconds_saved\":%.6f,"
      "\"disk_hits\":%llu,\"disk_misses\":%llu,\"disk_evictions\":%llu,"
      "\"disk_load_failures\":%llu,\"disk_stores\":%llu,"
      "\"disk_lease_waits\":%llu,\"disk_lease_takeovers\":%llu,"
      "\"deserialize_seconds\":%.6f,\"serialize_seconds\":%.6f,"
      "\"verify_rejects\":%llu,"
      "\"tier_swaps\":%llu,\"background_recompiles\":%llu}",
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.cache_misses),
      static_cast<unsigned long long>(s.compiles),
      static_cast<unsigned long long>(s.compile_joins),
      static_cast<unsigned long long>(s.tier_warmups),
      static_cast<unsigned long long>(s.lock_waits), s.lock_wait_seconds, s.compile_seconds,
      s.compile_seconds_saved, static_cast<unsigned long long>(s.disk_hits),
      static_cast<unsigned long long>(s.disk_misses),
      static_cast<unsigned long long>(s.disk_evictions),
      static_cast<unsigned long long>(s.disk_load_failures),
      static_cast<unsigned long long>(s.disk_stores),
      static_cast<unsigned long long>(s.disk_lease_waits),
      static_cast<unsigned long long>(s.disk_lease_takeovers), s.deserialize_seconds,
      s.serialize_seconds, static_cast<unsigned long long>(s.verify_rejects),
      static_cast<unsigned long long>(s.tier_swaps),
      static_cast<unsigned long long>(s.background_recompiles));
}

// after - before, field by field: the one subtraction path for scoping a
// stats snapshot to a phase/leg (benches previously hand-rolled per-field
// deltas at every call site).
inline engine::EngineStats EngineStatsDelta(const engine::EngineStats& after,
                                            const engine::EngineStats& before) {
  engine::EngineStats d;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.cache_misses = after.cache_misses - before.cache_misses;
  d.compiles = after.compiles - before.compiles;
  d.compile_joins = after.compile_joins - before.compile_joins;
  d.tier_warmups = after.tier_warmups - before.tier_warmups;
  d.lock_waits = after.lock_waits - before.lock_waits;
  d.lock_wait_seconds = after.lock_wait_seconds - before.lock_wait_seconds;
  d.compile_seconds = after.compile_seconds - before.compile_seconds;
  d.compile_seconds_saved = after.compile_seconds_saved - before.compile_seconds_saved;
  d.disk_hits = after.disk_hits - before.disk_hits;
  d.disk_misses = after.disk_misses - before.disk_misses;
  d.disk_evictions = after.disk_evictions - before.disk_evictions;
  d.disk_load_failures = after.disk_load_failures - before.disk_load_failures;
  d.disk_stores = after.disk_stores - before.disk_stores;
  d.disk_lease_waits = after.disk_lease_waits - before.disk_lease_waits;
  d.disk_lease_takeovers = after.disk_lease_takeovers - before.disk_lease_takeovers;
  d.deserialize_seconds = after.deserialize_seconds - before.deserialize_seconds;
  d.serialize_seconds = after.serialize_seconds - before.serialize_seconds;
  d.verify_rejects = after.verify_rejects - before.verify_rejects;
  d.tier_swaps = after.tier_swaps - before.tier_swaps;
  d.background_recompiles = after.background_recompiles - before.background_recompiles;
  return d;
}

// EngineStatsJson plus bench-specific keys appended inside the same object —
// the one emission path for per-phase stats blocks (engine_persist and
// engine_parallel previously each hand-picked fields with StrFormat).
inline std::string EngineStatsJsonWith(const engine::EngineStats& s, const std::string& extra) {
  std::string base = EngineStatsJson(s);
  if (!extra.empty()) {
    base.insert(base.size() - 1, "," + extra);
  }
  return base;
}

// The process-wide metrics registry (counters, gauges, latency histograms
// with p50/p90/p99/p999) as one JSON object — every bench JSON embeds it as
// its telemetry block next to engine_stats.
inline std::string TelemetryJson() { return telemetry::MetricsRegistry::Global().DumpJson(); }

// Writes BENCH_<name>.json in the working directory. `json` must be a JSON
// object; the engine's stats (shared engine by default) are injected as its
// engine_stats key so every bench JSON reports cache hits/misses and compile
// seconds saved, and the metrics registry as its telemetry key (latency
// percentiles for compile/run/disk paths).
inline bool WriteBenchJson(const std::string& bench_name, const std::string& json,
                           const engine::Engine* eng = nullptr) {
  std::string payload = json;
  if (!payload.empty() && payload.front() == '{') {
    std::string stats =
        "\"engine_stats\":" + EngineStatsJson((eng != nullptr ? *eng : SharedEngine()).Stats()) +
        ",\"telemetry\":" + TelemetryJson();
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

inline double Ratio(const SuiteRow& row, const std::string& profile, const std::string& base,
                    double (*metric)(const RunResult&)) {
  auto it = row.by_profile.find(profile);
  auto ib = row.by_profile.find(base);
  if (it == row.by_profile.end() || ib == row.by_profile.end() || !it->second.ok ||
      !ib->second.ok) {
    return 0;
  }
  double denom = metric(ib->second);
  return denom > 0 ? metric(it->second) / denom : 0;
}

inline double SecondsMetric(const RunResult& r) { return r.seconds; }

}  // namespace nsf

#endif  // BENCH_BENCH_UTIL_H_

// PGO ablation: PolyBench under the two JIT profiles with and without the
// profile-guided tier-up, driven through Engine::TierUp. For
// each workload, a warm-up run under the instrumented interpreter collects a
// Profile; the workload is then recompiled with hotness-ordered code layout,
// hot-loop rotation, cold if-arm sinking, and monomorphic devirtualization.
// Outputs stay validated against the native reference, so any PGO miscompile
// shows up here. Every (module, options) pair compiles exactly once — the
// engine's code cache serves the reference and repeat compiles.
#include "bench/bench_util.h"

using namespace nsf;

int main() {
  printf("== PGO ablation: PolyBench cycles, tier-up off vs on ==\n\n");
  BenchHarness& harness = SharedHarness();
  std::vector<CodegenOptions> bases = {CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM()};

  std::vector<std::vector<std::string>> table = {
      {"benchmark", "chrome", "chrome+pgo", "ratio", "firefox", "firefox+pgo", "ratio"}};
  std::map<std::string, std::vector<double>> cycle_ratios;   // base profile -> per-workload
  std::map<std::string, std::vector<double>> icache_ratios;  // base profile -> per-workload
  std::string json = "{\"workloads\":{";
  bool first_workload = true;

  for (const WorkloadSpec& spec : AllPolybench()) {
    std::vector<std::string> row = {spec.name};
    std::string json_row;
    bool row_ok = true;
    // Staged per-row so a failure under either base profile drops the
    // workload from BOTH geomeans — the two columns must cover the same set.
    std::map<std::string, double> row_cycle_ratio;
    std::map<std::string, double> row_icache_ratio;
    for (const CodegenOptions& base : bases) {
      RunResult off = harness.MeasureValidated(spec, base);
      std::string err;
      CodegenOptions tiered = SharedEngine().TierUp(spec, base, &err);
      if (!err.empty()) {
        fprintf(stderr, "!! %s: %s\n", spec.name.c_str(), err.c_str());
      }
      RunResult on = harness.MeasureValidated(spec, tiered);
      if (!off.ok || !on.ok || !off.validated || !on.validated) {
        fprintf(stderr, "!! %s under %s: off(%s) on(%s)\n", spec.name.c_str(),
                base.profile_name.c_str(), off.ok ? "ok" : off.error.c_str(),
                on.ok ? "ok" : on.error.c_str());
        row_ok = false;
        continue;
      }
      double off_c = static_cast<double>(off.counters.cycles());
      double on_c = static_cast<double>(on.counters.cycles());
      double ratio = off_c > 0 ? on_c / off_c : 1.0;
      row_cycle_ratio[base.profile_name] = ratio > 0 ? ratio : 1.0;
      double off_i = std::max<double>(1.0, static_cast<double>(off.counters.l1i_misses));
      double on_i = std::max<double>(1.0, static_cast<double>(on.counters.l1i_misses));
      row_icache_ratio[base.profile_name] = on_i / off_i;
      row.push_back(StrFormat("%.2fM", off_c / 1e6));
      row.push_back(StrFormat("%.2fM", on_c / 1e6));
      row.push_back(StrFormat("%.3fx", ratio));
      json_row += StrFormat("%s\"%s\":{\"off\":%s,\"on\":%s}", json_row.empty() ? "" : ",",
                            JsonEscape(base.profile_name).c_str(), RunResultJson(off).c_str(),
                            RunResultJson(on).c_str());
    }
    if (row_ok) {
      for (const auto& [profile, ratio] : row_cycle_ratio) {
        cycle_ratios[profile].push_back(ratio);
      }
      for (const auto& [profile, ratio] : row_icache_ratio) {
        icache_ratios[profile].push_back(ratio);
      }
      table.push_back(row);
      json += StrFormat("%s\"%s\":{%s}", first_workload ? "" : ",",
                        JsonEscape(spec.name).c_str(), json_row.c_str());
      first_workload = false;
    }
    fprintf(stderr, "  ran %s\n", spec.name.c_str());
  }

  std::vector<std::string> geo_row = {"geomean", "", "", "", "", "", ""};
  json += "},\"geomean\":{";
  bool first_geo = true;
  for (size_t b = 0; b < bases.size(); b++) {
    const std::string& name = bases[b].profile_name;
    double cyc = GeoMean(cycle_ratios[name]);
    double ica = GeoMean(icache_ratios[name]);
    geo_row[3 + 3 * b] = StrFormat("%.3fx", cyc);
    json += StrFormat("%s\"%s\":{\"cycles_ratio\":%.6f,\"l1i_miss_ratio\":%.6f}",
                      first_geo ? "" : ",", JsonEscape(name).c_str(), cyc, ica);
    first_geo = false;
  }
  json += "}}";
  table.push_back(geo_row);

  printf("%s\n", RenderTable(table).c_str());
  for (const CodegenOptions& base : bases) {
    printf("%s: PGO cycles geomean %.3fx, L1i-miss geomean %.3fx (vs PGO off)\n",
           base.profile_name.c_str(), GeoMean(cycle_ratios[base.profile_name]),
           GeoMean(icache_ratios[base.profile_name]));
  }
  printf("\nPGO on/off < 1.0x means the tier-up recovered part of the Wasm-vs-native\n");
  printf("gap the paper attributes to extra branches, checks, and icache pressure.\n");
  engine::EngineStats es = SharedEngine().Stats();
  printf("engine: %llu compiles, %llu cache hits, %llu tier warm-ups, %.3fs compile saved\n",
         (unsigned long long)es.compiles, (unsigned long long)es.cache_hits,
         (unsigned long long)es.tier_warmups, es.compile_seconds_saved);
  WriteBenchJson("ablation_pgo", json);

  bool regressed = false;
  for (const CodegenOptions& base : bases) {
    if (GeoMean(cycle_ratios[base.profile_name]) > 1.0) {
      regressed = true;
    }
  }
  return regressed ? 1 : 0;
}

// Every figure, table and ablation of the paper's reproduction, rendered from
// one result set. Each (workload, options) key runs once, validated against
// the native reference run, and every figure that needs the key reads that
// run: Fig 3b, 9, 10 and Tables 1 and 4 share one SPEC set, Fig 4, 5 and 6
// one asm.js set, and Fig 1, 3a and the PGO ablation one PolyBench set.
//
// main() lists every key before it runs any, runs them all on one
// ExecutorPool with a worker per hardware thread, and only then renders.
//
// Prints each figure's table to stdout and writes its BENCH_<name>.json into
// the working directory. Exits non-zero when any run fails, traps or
// mismatches the reference, when a tier-up fails, or when PGO raises either
// JIT profile's cycles geomean above 1.0.
#include "bench/bench_util.h"

#include <algorithm>
#include <map>
#include <thread>
#include <utility>

#include "src/engine/executor.h"
#include "src/spec/spec.h"

using namespace nsf;

namespace {

// One key's run, and whether its outputs equal its workload's native
// reference outputs.
struct Run : engine::BatchRunResult {
  bool validated = false;
};

class Results {
 public:
  // Queues `spec` under each of `profiles`. A key is (workload name, options
  // fingerprint), so a key queued twice runs once.
  void Add(const WorkloadSpec& spec, const std::vector<CodegenOptions>& profiles) {
    for (const CodegenOptions& options : profiles) {
      if (index_.try_emplace({spec.name, options.Fingerprint()}, requests_.size()).second) {
        requests_.push_back({spec, options});
      }
    }
  }

  // Runs every queued key on one pool over the shared engine and compares
  // each run's outputs with its workload's native reference run. The
  // references go first, as their own batch, so that every native key of the
  // second batch is a code-cache hit: the pins hold cache_hit.
  void RunAll() {
    engine::ExecutorPool pool(&SharedEngine(),
                              static_cast<int>(std::thread::hardware_concurrency()));
    std::vector<engine::RunRequest> references;
    std::map<std::string, size_t> reference_of;  // workload name -> slot in references
    for (const engine::RunRequest& request : requests_) {
      if (reference_of.try_emplace(request.spec.name, references.size()).second) {
        references.push_back({request.spec, CodegenOptions::NativeClang()});
      }
    }
    const engine::BatchReport reference_report = pool.Run(references);
    engine::BatchReport report = pool.Run(requests_);
    for (size_t i = 0; i < requests_.size(); i++) {
      const engine::RunRequest& request = requests_[i];
      const engine::BatchRunResult& reference =
          reference_report.runs[reference_of[request.spec.name]];
      Run& run = runs_.emplace_back(Run{std::move(report.runs[i])});
      run.validated = run.ok && reference.ok && run.outputs == reference.outputs;
      if (!run.validated) {
        Fail(request.spec.name + " under " + request.options.profile_name + ": " +
             (!run.ok        ? run.error
              : reference.ok ? "output mismatch vs reference"
                             : "reference run failed: " + reference.error));
      }
    }
  }

  // The run of `spec` under `options`; a key that was never queued fails.
  const Run& Get(const WorkloadSpec& spec, const CodegenOptions& options) {
    auto it = index_.find({spec.name, options.Fingerprint()});
    if (it == index_.end()) {
      Fail(spec.name + " under " + options.profile_name + ": never run");
      static const Run kMissing;
      return kMissing;
    }
    return runs_[it->second];
  }

  void Fail(const std::string& what) {
    fprintf(stderr, "!! %s\n", what.c_str());
    failed_ = true;
  }
  bool failed() const { return failed_; }

 private:
  std::map<std::pair<std::string, uint64_t>, size_t> index_;  // key -> slot
  std::vector<engine::RunRequest> requests_;                    // by slot
  std::vector<Run> runs_;                                        // by slot, after RunAll
  bool failed_ = false;
};

std::vector<WorkloadSpec> AllSpec() {
  std::vector<WorkloadSpec> out;
  for (const std::string& name : SpecWorkloadNames()) {
    out.push_back(SpecWorkload(name));
  }
  return out;
}

// The separator before the next member of the JSON object `json` is building.
const char* Sep(const std::string& json) { return json.back() == '{' ? "" : ","; }

// One run's counters as a JSON object.
std::string RunResultJson(const Run& r) {
  return StrFormat(
      "{\"ok\":%s,\"validated\":%s,\"cache_hit\":%s,\"seconds\":%.9f,\"cycles\":%llu,"
      "\"instructions\":%llu,\"loads\":%llu,\"stores\":%llu,\"branches\":%llu,"
      "\"cond_branches\":%llu,\"taken_branches\":%llu,\"l1i_misses\":%llu,"
      "\"l1d_misses\":%llu,\"l2_misses\":%llu,\"code_bytes\":%llu}",
      r.ok ? "true" : "false", r.validated ? "true" : "false",
      r.compile_info.hit ? "true" : "false", r.outcome.seconds,
      static_cast<unsigned long long>(r.outcome.counters.cycles()),
      static_cast<unsigned long long>(r.outcome.counters.instructions_retired),
      static_cast<unsigned long long>(r.outcome.counters.loads_retired),
      static_cast<unsigned long long>(r.outcome.counters.stores_retired),
      static_cast<unsigned long long>(r.outcome.counters.branches_retired),
      static_cast<unsigned long long>(r.outcome.counters.cond_branches_retired),
      static_cast<unsigned long long>(r.outcome.counters.taken_branches),
      static_cast<unsigned long long>(r.outcome.counters.l1i_misses),
      static_cast<unsigned long long>(r.outcome.counters.l1d_misses),
      static_cast<unsigned long long>(r.outcome.counters.l2_misses),
      static_cast<unsigned long long>(r.compile.code_bytes));
}

// {"workloads": {name: {profile: counters}}} over specs x profiles, profiles
// in name order.
std::string SuiteJson(Results& results, const std::vector<WorkloadSpec>& specs,
                      const std::vector<CodegenOptions>& profiles) {
  std::string out = "{\"workloads\":{";
  for (const WorkloadSpec& spec : specs) {
    std::map<std::string, const Run*> by_profile;
    for (const CodegenOptions& opts : profiles) {
      by_profile[opts.profile_name] = &results.Get(spec, opts);
    }
    out += StrFormat("%s\"%s\":{", Sep(out), JsonEscape(spec.name).c_str());
    for (const auto& [profile, result] : by_profile) {
      out += StrFormat("%s\"%s\":%s", Sep(out), JsonEscape(profile).c_str(),
                       RunResultJson(*result).c_str());
    }
    out += "}";
  }
  return out + "}}";
}

// One metric's per-workload ratios for the Chrome and Firefox columns.
struct Ratios {
  std::vector<std::string> names;
  std::vector<double> chrome;
  std::vector<double> firefox;
};

double Seconds(const Run& r) { return r.outcome.seconds; }

// metric(Wasm run) / metric(native run) per workload.
Ratios VsNative(Results& results, const std::vector<WorkloadSpec>& specs,
                double (*metric)(const Run&)) {
  Ratios out;
  for (const WorkloadSpec& spec : specs) {
    double native = metric(results.Get(spec, CodegenOptions::NativeClang()));
    out.names.push_back(spec.name);
    out.chrome.push_back(metric(results.Get(spec, CodegenOptions::ChromeV8())) / native);
    out.firefox.push_back(metric(results.Get(spec, CodegenOptions::FirefoxSM())) / native);
  }
  return out;
}

// The benchmark | chrome | firefox table, closed by a geomean row.
std::string RatioTable(const Ratios& r) {
  std::vector<std::vector<std::string>> table = {{"benchmark", "chrome", "firefox"}};
  for (size_t i = 0; i < r.names.size(); i++) {
    table.push_back(
        {r.names[i], StrFormat("%.2fx", r.chrome[i]), StrFormat("%.2fx", r.firefox[i])});
  }
  table.push_back({"geomean", StrFormat("%.2fx", GeoMean(r.chrome)),
                   StrFormat("%.2fx", GeoMean(r.firefox))});
  return RenderTable(table);
}

// The counters of Fig 9's panels, Fig 10 and Table 4, with the paper's
// Table 4 geomeans (Chrome / Firefox).
struct Counter {
  const char* fig9_label;  // null: not a Fig 9 panel
  const char* table4_label;
  const char* paper_chrome;
  const char* paper_firefox;
  double (*metric)(const Run&);
};

const Counter kCounters[] = {
    {"loads-retired (9a)", "all-loads-retired", "2.02x", "1.92x",
     [](const Run& r) { return static_cast<double>(r.outcome.counters.loads_retired); }},
    {"stores-retired (9b)", "all-stores-retired", "2.30x", "2.16x",
     [](const Run& r) { return static_cast<double>(r.outcome.counters.stores_retired); }},
    {"branches-retired (9c)", "branch-instructions-retired", "1.75x", "1.65x",
     [](const Run& r) { return static_cast<double>(r.outcome.counters.branches_retired); }},
    {"cond-branches (9d)", "conditional-branches", "1.65x", "1.62x",
     [](const Run& r) { return static_cast<double>(r.outcome.counters.cond_branches_retired); }},
    {"instructions-retired (9e)", "instructions-retired", "1.80x", "1.75x",
     [](const Run& r) { return static_cast<double>(r.outcome.counters.instructions_retired); }},
    {"cpu-cycles (9f)", "cpu-cycles", "1.54x", "1.38x",
     [](const Run& r) { return static_cast<double>(r.outcome.counters.cycles()); }},
    {nullptr, "L1-icache-load-misses", "2.83x", "2.04x",
     [](const Run& r) { return static_cast<double>(r.outcome.counters.l1i_misses); }},
};
constexpr size_t kL1iCounter = 6;

// Fig 1's Chrome engines, oldest first.
std::vector<CodegenOptions> ChromeEras() {
  return {CodegenOptions::ChromeV8_2017(), CodegenOptions::ChromeV8_2018(),
          CodegenOptions::ChromeV8()};
}

void Fig01(Results& results, const std::vector<WorkloadSpec>& polybench) {
  printf("== Figure 1: PolyBenchC kernels within Nx of native, by engine era ==\n\n");
  const std::vector<CodegenOptions> eras = ChromeEras();
  const char* labels[] = {"PLDI 2017", "April 2018", "May 2019 (this paper)"};
  const double buckets[] = {1.1, 1.5, 2.0, 2.5};
  std::vector<std::vector<std::string>> table = {
      {"engine", "< 1.1x", "< 1.5x", "< 2x", "< 2.5x"}};
  for (int e = 0; e < 3; e++) {
    int counts[4] = {0, 0, 0, 0};
    for (const WorkloadSpec& spec : polybench) {
      double ratio = results.Get(spec, eras[e]).outcome.seconds /
                     results.Get(spec, CodegenOptions::NativeClang()).outcome.seconds;
      for (int b = 0; b < 4; b++) {
        if (ratio < buckets[b]) {
          counts[b]++;
        }
      }
    }
    table.push_back({labels[e], StrFormat("%d", counts[0]), StrFormat("%d", counts[1]),
                     StrFormat("%d", counts[2]), StrFormat("%d", counts[3])});
  }
  printf("%s\n", RenderTable(table).c_str());
  printf("Paper (Fig 1): newer engines move kernels into tighter buckets\n");
  printf("(7 -> 11 -> 13 within 1.1x of native, out of 23/24 kernels).\n");
  WriteBenchJson("fig01_polybench_history",
                 SuiteJson(results, polybench,
                           {CodegenOptions::NativeClang(), eras[0], eras[1], eras[2]}));
}

std::vector<CodegenOptions> WasmVsNative() {
  return {CodegenOptions::NativeClang(), CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM()};
}

void Fig03a(Results& results, const std::vector<WorkloadSpec>& polybench) {
  printf("== Figure 3a: PolyBenchC relative execution time (native = 1.0) ==\n\n");
  printf("%s\n", RatioTable(VsNative(results, polybench, Seconds)).c_str());
  printf("Paper (Fig 3a): PolyBenchC shows modest overhead; most kernels fall well\n");
  printf("below the SPEC-suite slowdowns of Fig 3b.\n");
  WriteBenchJson("fig03a_polybench_relative", SuiteJson(results, polybench, WasmVsNative()));
}

void Fig03b(Results& results, const std::vector<WorkloadSpec>& spec) {
  printf("== Figure 3b: SPEC relative execution time (native = 1.0) ==\n\n");
  printf("%s\n", RatioTable(VsNative(results, spec, Seconds)).c_str());
  printf("Paper (Fig 3b): geomean 1.55x (Chrome), 1.45x (Firefox); peaks 2.5x / 2.08x;\n");
  printf("SPEC overheads exceed PolyBenchC overheads.\n");
  WriteBenchJson("fig03b_spec_relative", SuiteJson(results, spec, WasmVsNative()));
}

void Fig04(Results& results, const std::vector<WorkloadSpec>& spec) {
  printf("== Figure 4: %% of time spent in Browsix-Wasm (Firefox profile) ==\n\n");
  std::vector<std::pair<std::string, double>> bars;
  double total = 0;
  std::string json = "{\"workloads\":{";
  for (const WorkloadSpec& s : spec) {
    const Run& r = results.Get(s, CodegenOptions::FirefoxSM());
    double pct = 100.0 * r.outcome.browsix_seconds / r.outcome.seconds;
    json += StrFormat("%s\"%s\":{\"browsix_pct\":%.4f,\"syscalls\":%llu}",
                      Sep(json), JsonEscape(s.name).c_str(), pct,
                      static_cast<unsigned long long>(r.outcome.syscalls));
    bars.push_back({s.name, pct});
    total += pct;
  }
  double avg = total / bars.size();
  bars.push_back({"average", avg});
  json += StrFormat("},\"average_pct\":%.4f}", avg);
  printf("%s\n", RenderBars(bars, 0, "%").c_str());
  printf("Paper (Fig 4): <= 1.2%% per benchmark, mean 0.2%% — Browsix overhead is\n");
  printf("negligible, so slowdowns are attributable to code generation.\n");
  WriteBenchJson("fig04_browsix_overhead", json);
}

std::vector<CodegenOptions> AsmJs() {
  return {CodegenOptions::NativeClang(), CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM(),
          CodegenOptions::ChromeAsmJs(), CodegenOptions::FirefoxAsmJs()};
}

void Fig05(Results& results, const std::vector<WorkloadSpec>& spec) {
  printf("== Figure 5: asm.js execution time relative to WebAssembly ==\n\n");
  Ratios ratios;
  for (const WorkloadSpec& s : spec) {
    ratios.names.push_back(s.name);
    ratios.chrome.push_back(results.Get(s, CodegenOptions::ChromeAsmJs()).outcome.seconds /
                            results.Get(s, CodegenOptions::ChromeV8()).outcome.seconds);
    ratios.firefox.push_back(results.Get(s, CodegenOptions::FirefoxAsmJs()).outcome.seconds /
                             results.Get(s, CodegenOptions::FirefoxSM()).outcome.seconds);
  }
  printf("%s\n", RatioTable(ratios).c_str());
  printf("Paper (Fig 5): Wasm beats asm.js — 1.54x (Chrome), 1.39x (Firefox).\n");
  WriteBenchJson("fig05_asmjs_relative", SuiteJson(results, spec, AsmJs()));
}

void Fig06(Results& results, const std::vector<WorkloadSpec>& spec) {
  printf("== Figure 6: best asm.js vs best WebAssembly ==\n\n");
  std::vector<std::vector<std::string>> table = {{"benchmark", "best-asmjs / best-wasm"}};
  std::vector<double> ratios;
  for (const WorkloadSpec& s : spec) {
    double wasm_best = std::min(results.Get(s, CodegenOptions::ChromeV8()).outcome.seconds,
                                results.Get(s, CodegenOptions::FirefoxSM()).outcome.seconds);
    double asm_best = std::min(results.Get(s, CodegenOptions::ChromeAsmJs()).outcome.seconds,
                               results.Get(s, CodegenOptions::FirefoxAsmJs()).outcome.seconds);
    ratios.push_back(asm_best / wasm_best);
    table.push_back({s.name, StrFormat("%.2fx", ratios.back())});
  }
  table.push_back({"geomean", StrFormat("%.2fx", GeoMean(ratios))});
  printf("%s\n", RenderTable(table).c_str());
  printf("Paper (Fig 6): best-asm.js is 1.3x slower than best-Wasm on average.\n");
  WriteBenchJson("fig06_asmjs_best", SuiteJson(results, spec, AsmJs()));
}

// Paper sizes 200..2000 are scaled to 32..224 to keep simulated runs
// tractable; the shape (a stable 2-3x band) is the claim under test.
constexpr int kMatmulSizes[] = {32, 48, 64, 96, 128, 160, 192, 224};

void Fig08(Results& results) {
  printf("== Figure 8: matmul relative time across sizes (native = 1.0) ==\n\n");
  std::vector<std::vector<std::string>> table = {{"size", "chrome", "firefox"}};
  std::string json = "{\"sizes\":{";
  for (int n : kMatmulSizes) {
    WorkloadSpec spec = MatmulSpec(n);
    double native = results.Get(spec, CodegenOptions::NativeClang()).outcome.seconds;
    double chrome = results.Get(spec, CodegenOptions::ChromeV8()).outcome.seconds / native;
    double firefox = results.Get(spec, CodegenOptions::FirefoxSM()).outcome.seconds / native;
    table.push_back({StrFormat("%dx%dx%d", n, n, n), StrFormat("%.2fx", chrome),
                     StrFormat("%.2fx", firefox)});
    json += StrFormat("%s\"%d\":{\"chrome\":%.4f,\"firefox\":%.4f}", Sep(json), n,
                      chrome, firefox);
  }
  json += "}}";
  printf("%s\n", RenderTable(table).c_str());
  printf("Paper (Fig 8): Wasm stays 2.0-3.4x slower than native across all sizes.\n");
  WriteBenchJson("fig08_matmul_sweep", json);
}

void Fig09(Results& results, const std::vector<WorkloadSpec>& spec,
           const std::vector<Ratios>& counter_ratios) {
  printf("== Figures 9a-9f: counter ratios relative to native ==\n\n");
  for (size_t c = 0; c < kL1iCounter; c++) {
    printf("--- %s ---\n", kCounters[c].fig9_label);
    printf("%s\n", RatioTable(counter_ratios[c]).c_str());
  }
  printf("Paper (Table 4 geomeans): loads 2.02/1.92, stores 2.30/2.16, branches\n");
  printf("1.75/1.65, cond-branches 1.65/1.62, instructions 1.80/1.75, cycles 1.54/1.38\n");
  printf("(Chrome/Firefox).\n");
  WriteBenchJson("fig09_perf_counters", SuiteJson(results, spec, WasmVsNative()));
}

void Fig10(Results& results, const std::vector<WorkloadSpec>& spec,
           const std::vector<Ratios>& counter_ratios) {
  printf("== Figure 10: L1 icache misses relative to native ==\n\n");
  printf("%s\n", RatioTable(counter_ratios[kL1iCounter]).c_str());
  printf("Paper (Fig 10): geomean 2.83x (Chrome) / 2.04x (Firefox); 458.sjeng is the\n");
  printf("outlier (26.5x / 18.6x) because its larger generated code overflows L1i.\n");
  WriteBenchJson("fig10_icache", SuiteJson(results, spec, WasmVsNative()));
}

// The simulator is deterministic, so each cell is one run's exact simulated
// seconds (the paper reports the mean of 5 hardware runs +- stderr).
void Table1(Results& results, const std::vector<WorkloadSpec>& spec) {
  printf("== Table 1: SPEC execution times (simulated seconds) ==\n\n");
  std::vector<std::vector<std::string>> table = {
      {"benchmark", "native", "chrome", "firefox"}};
  for (const WorkloadSpec& s : spec) {
    table.push_back({s.name,
                     StrFormat("%.6f", Seconds(results.Get(s, CodegenOptions::NativeClang()))),
                     StrFormat("%.6f", Seconds(results.Get(s, CodegenOptions::ChromeV8()))),
                     StrFormat("%.6f", Seconds(results.Get(s, CodegenOptions::FirefoxSM())))});
  }
  Ratios ratios = VsNative(results, spec, Seconds);
  table.push_back({"slowdown: geomean", "-", StrFormat("%.2fx", GeoMean(ratios.chrome)),
                   StrFormat("%.2fx", GeoMean(ratios.firefox))});
  table.push_back({"slowdown: median", "-", StrFormat("%.2fx", Median(ratios.chrome)),
                   StrFormat("%.2fx", Median(ratios.firefox))});
  printf("%s\n", RenderTable(table).c_str());
  printf("Paper (Table 1): geomean 1.55x / 1.45x, median 1.53x / 1.54x.\n");
  WriteBenchJson("table1_spec_times", SuiteJson(results, spec, WasmVsNative()));
}

// Compile times of the offline (clang-like) backend vs the JIT (Chrome-like)
// backend. Every repetition calls the backend directly, so Table 2 shares no
// run with the other figures and no engine cache can serve it.
void Table2(Results& results, const std::vector<WorkloadSpec>& spec) {
  printf("== Table 2: compile times (seconds, this machine) ==\n\n");
  std::vector<std::vector<std::string>> table = {
      {"benchmark", "native-clang", "chrome-v8", "ratio"}};
  std::string json = "{\"workloads\":{";
  double total_native = 0;
  double total_chrome = 0;
  for (const WorkloadSpec& s : spec) {
    Module m = s.build();
    // Median of 3 compiles for stability.
    auto time_compile = [&](const CodegenOptions& opts) {
      std::vector<double> samples;
      for (int i = 0; i < 3; i++) {
        CompileResult r = CompileModule(m, opts);
        if (!r.ok) {
          results.Fail(s.name + " under " + opts.profile_name + ": " + r.error);
        }
        samples.push_back(r.stats.seconds);
      }
      return Median(samples);
    };
    double nat = time_compile(CodegenOptions::NativeClang());
    double ch = time_compile(CodegenOptions::ChromeV8());
    total_native += nat;
    total_chrome += ch;
    table.push_back({s.name, StrFormat("%.4f", nat), StrFormat("%.4f", ch),
                     StrFormat("%.1fx", ch > 0 ? nat / ch : 0)});
    json += StrFormat("%s\"%s\":{\"native\":%.6f,\"chrome\":%.6f}",
                      Sep(json), JsonEscape(s.name).c_str(), nat, ch);
  }
  json += "}}";
  table.push_back({"total", StrFormat("%.4f", total_native), StrFormat("%.4f", total_chrome),
                   StrFormat("%.1fx", total_chrome > 0 ? total_native / total_chrome : 0)});
  printf("%s\n", RenderTable(table).c_str());
  printf("Paper (Table 2): Clang is order(s)-of-magnitude slower to compile than the\n");
  printf("engine's JIT; compile time is negligible vs execution time in both cases.\n");
  WriteBenchJson("table2_compile_times", json);
}

// The geomeans of Fig 9's and Fig 10's per-workload ratios.
void Table4(Results& results, const std::vector<WorkloadSpec>& spec,
            const std::vector<Ratios>& counter_ratios) {
  printf("== Table 4: geomean counter increases (Wasm / native) ==\n\n");
  std::vector<std::vector<std::string>> table = {
      {"counter", "chrome", "firefox", "paper-chrome", "paper-firefox"}};
  for (size_t c = 0; c < counter_ratios.size(); c++) {
    table.push_back({kCounters[c].table4_label,
                     StrFormat("%.2fx", GeoMean(counter_ratios[c].chrome)),
                     StrFormat("%.2fx", GeoMean(counter_ratios[c].firefox)),
                     kCounters[c].paper_chrome, kCounters[c].paper_firefox});
  }
  printf("%s\n", RenderTable(table).c_str());
  WriteBenchJson("table4_counter_geomeans", SuiteJson(results, spec, WasmVsNative()));
}

// The §6 causes ladder: native -> +linear-scan -> +no-fusion ->
// +no-rotation -> +reserved regs/heap reg -> +checks (= chrome profile).
std::vector<CodegenOptions> CausesLadder() {
  std::vector<CodegenOptions> ladder;
  CodegenOptions base = CodegenOptions::NativeClang();
  base.profile_name = "native";
  ladder.push_back(base);

  CodegenOptions l1 = base;
  l1.profile_name = "+linear-scan-regalloc";
  l1.regalloc = RegAllocKind::kLinearScan;
  ladder.push_back(l1);

  CodegenOptions l2 = l1;
  l2.profile_name = "+no-addressing-fusion";
  l2.fuse_addressing = false;
  ladder.push_back(l2);

  CodegenOptions l3 = l2;
  l3.profile_name = "+no-loop-rotation";
  l3.rotate_loops = false;
  ladder.push_back(l3);

  CodegenOptions l4 = l3;
  l4.profile_name = "+reserved-registers";
  l4.heap_base_in_disp = false;
  l4.heap_base_reg = Gpr::kRbx;
  l4.reserved_gprs = {Gpr::kR13};
  l4.reserved_xmms = {Xmm::kXmm13};
  ladder.push_back(l4);

  CodegenOptions l5 = l4;
  l5.profile_name = "+stack+indirect-checks";
  l5.stack_check = true;
  l5.indirect_check = true;
  l5.loop_entry_jump = true;
  ladder.push_back(l5);
  return ladder;
}

// The mixed workload sample the causes ladder runs on.
std::vector<WorkloadSpec> CausesSample() {
  return {PolybenchSpec("gemm"), MatmulSpec(64), SpecWorkload("458.sjeng"),
          SpecWorkload("473.astar"), SpecWorkload("444.namd")};
}

// Isolates each §6 root cause by toggling one codegen option at a time on
// top of the native profile, on a mixed workload sample.
void AblationCodegenCauses(Results& results) {
  printf("== Ablation: per-cause contribution to the Wasm slowdown ==\n\n");
  const std::vector<CodegenOptions> ladder = CausesLadder();
  const std::vector<WorkloadSpec> sample = CausesSample();

  std::vector<std::vector<std::string>> table = {
      {"configuration", "geomean-vs-native", "instr-ratio", "load-ratio"}};
  std::string json = "{\"configurations\":{";
  for (const CodegenOptions& opts : ladder) {
    std::vector<double> sr;
    std::vector<double> ir;
    std::vector<double> lr;
    for (const WorkloadSpec& spec : sample) {
      const Run& r = results.Get(spec, opts);
      const Run& b = results.Get(spec, ladder.front());
      sr.push_back(r.outcome.seconds / b.outcome.seconds);
      ir.push_back(static_cast<double>(r.outcome.counters.instructions_retired) /
                   static_cast<double>(b.outcome.counters.instructions_retired));
      lr.push_back(static_cast<double>(r.outcome.counters.loads_retired) /
                   static_cast<double>(b.outcome.counters.loads_retired));
    }
    table.push_back({opts.profile_name, StrFormat("%.2fx", GeoMean(sr)),
                     StrFormat("%.2fx", GeoMean(ir)), StrFormat("%.2fx", GeoMean(lr))});
    json += StrFormat("%s\"%s\":{\"seconds_ratio\":%.4f,\"instr_ratio\":%.4f,\"load_ratio\":%.4f}",
                      Sep(json), JsonEscape(opts.profile_name).c_str(),
                      GeoMean(sr), GeoMean(ir), GeoMean(lr));
  }
  json += "}}";
  printf("%s\n", RenderTable(table).c_str());
  printf("Each row adds one cause from §6 on top of the previous row; the last row\n");
  printf("is the full Chrome-like configuration.\n");
  WriteBenchJson("ablation_codegen_causes", json);
}

// The §2 BrowserFS fix: an append-heavy stream (464.h264ref's bitstream)
// under the exact-growth vs chunked-growth filesystem policies.
void AblationFsGrowth() {
  printf("== Ablation: BrowserFS growth policy (the 464.h264ref fix, §2) ==\n\n");
  std::vector<std::vector<std::string>> table = {
      {"policy", "bytes copied by fs", "syscalls", "kernel cycles"}};
  std::string json = "{\"policies\":{";
  for (GrowthPolicy policy : {GrowthPolicy::kExact, GrowthPolicy::kChunked}) {
    BrowsixKernel kernel(policy);
    // Many small appends, as specinvoke-driven benchmarks produce.
    MemFs& fs = kernel.fs();
    int32_t inode = fs.CreateFile("/stream.bin");
    std::vector<uint8_t> chunk(128, 0xab);
    uint64_t offset = 0;
    for (int i = 0; i < 20000; i++) {
      fs.WriteAt(inode, offset, chunk.data(), chunk.size());
      offset += chunk.size();
    }
    bool exact = policy == GrowthPolicy::kExact;
    auto copy_bytes = static_cast<unsigned long long>(fs.total_copy_bytes());
    auto kernel_cycles =
        static_cast<unsigned long long>(kernel.TransportCycles(fs.total_copy_bytes()));
    table.push_back({exact ? "exact (pre-fix BrowserFS)" : "chunked >=4KB (fixed)",
                     StrFormat("%llu", copy_bytes),
                     StrFormat("%llu", static_cast<unsigned long long>(kernel.total_syscalls())),
                     StrFormat("%llu", kernel_cycles)});
    json += StrFormat("%s\"%s\":{\"copy_bytes\":%llu,\"kernel_cycles\":%llu}", Sep(json),
                      exact ? "exact" : "chunked", copy_bytes, kernel_cycles);
  }
  json += "}}";
  printf("%s\n", RenderTable(table).c_str());
  printf("Paper (§2): the exact policy made 464.h264ref spend 25s in Browsix; the\n");
  printf(">=4KB growth fix cut that to under 1.5s.\n");
  WriteBenchJson("ablation_fs_growth", json);
}

// The JIT profiles the PGO ablation tiers up.
std::vector<CodegenOptions> PgoBases() {
  return {CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM()};
}

// `base` tiered up with `spec`'s warm-up profile. The engine caches the
// profile per workload, so only the first call for a workload runs the
// warm-up.
CodegenOptions Tiered(Results& results, const WorkloadSpec& spec, const CodegenOptions& base) {
  std::string err;
  CodegenOptions tiered = SharedEngine().TierUp(spec, base, &err);
  if (!err.empty()) {
    results.Fail(spec.name + " tier-up under " + base.profile_name + ": " + err);
  }
  return tiered;
}

// PolyBench under the two JIT profiles with and without the profile-guided
// tier-up, driven through Engine::TierUp: a warm-up run under the
// instrumented interpreter collects a Profile, and the workload is
// recompiled with hotness-ordered code layout, hot-loop rotation, cold
// if-arm sinking and monomorphic devirtualization. Outputs are validated
// against the native reference, so a PGO miscompile fails the program.
void AblationPgo(Results& results, const std::vector<WorkloadSpec>& polybench) {
  printf("== PGO ablation: PolyBench cycles, tier-up off vs on ==\n\n");
  const std::vector<CodegenOptions> bases = PgoBases();
  std::vector<std::vector<std::string>> table = {
      {"benchmark", "chrome", "chrome+pgo", "ratio", "firefox", "firefox+pgo", "ratio"}};
  std::map<std::string, std::vector<double>> cycle_ratios;   // base profile -> per-workload
  std::map<std::string, std::vector<double>> icache_ratios;  // base profile -> per-workload
  std::string json = "{\"workloads\":{";
  for (const WorkloadSpec& spec : polybench) {
    std::vector<std::string> row = {spec.name};
    json += StrFormat("%s\"%s\":{", Sep(json), JsonEscape(spec.name).c_str());
    for (const CodegenOptions& base : bases) {
      const Run& off = results.Get(spec, base);
      const Run& on = results.Get(spec, Tiered(results, spec, base));
      double off_c = static_cast<double>(off.outcome.counters.cycles());
      double on_c = static_cast<double>(on.outcome.counters.cycles());
      cycle_ratios[base.profile_name].push_back(on_c / off_c);
      icache_ratios[base.profile_name].push_back(
          static_cast<double>(on.outcome.counters.l1i_misses) /
          static_cast<double>(off.outcome.counters.l1i_misses));
      row.push_back(StrFormat("%.2fM", off_c / 1e6));
      row.push_back(StrFormat("%.2fM", on_c / 1e6));
      row.push_back(StrFormat("%.3fx", on_c / off_c));
      json += StrFormat("%s\"%s\":{\"off\":%s,\"on\":%s}", Sep(json),
                        JsonEscape(base.profile_name).c_str(), RunResultJson(off).c_str(),
                        RunResultJson(on).c_str());
    }
    json += "}";
    table.push_back(row);
  }

  std::vector<std::string> geo_row = {"geomean", "", "", "", "", "", ""};
  json += "},\"geomean\":{";
  for (size_t b = 0; b < bases.size(); b++) {
    const std::string& name = bases[b].profile_name;
    double cyc = GeoMean(cycle_ratios[name]);
    double ica = GeoMean(icache_ratios[name]);
    geo_row[3 + 3 * b] = StrFormat("%.3fx", cyc);
    json += StrFormat("%s\"%s\":{\"cycles_ratio\":%.6f,\"l1i_miss_ratio\":%.6f}",
                      Sep(json), JsonEscape(name).c_str(), cyc, ica);
    if (cyc > 1.0) {
      results.Fail(StrFormat("%s: PGO cycles geomean %.3fx exceeds 1.0", name.c_str(), cyc));
    }
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
}

}  // namespace

int main() {
  const std::vector<WorkloadSpec> polybench = AllPolybench();
  const std::vector<WorkloadSpec> spec = AllSpec();
  Results results;
  for (const WorkloadSpec& s : polybench) {
    results.Add(s, WasmVsNative());
    results.Add(s, ChromeEras());
    for (const CodegenOptions& base : PgoBases()) {
      results.Add(s, {Tiered(results, s, base)});
    }
  }
  for (const WorkloadSpec& s : spec) {
    results.Add(s, AsmJs());
  }
  for (int n : kMatmulSizes) {
    results.Add(MatmulSpec(n), WasmVsNative());
  }
  for (const WorkloadSpec& s : CausesSample()) {
    results.Add(s, CausesLadder());
  }
  results.RunAll();

  Fig01(results, polybench);
  Fig03a(results, polybench);
  Fig03b(results, spec);
  Fig04(results, spec);
  Fig05(results, spec);
  Fig06(results, spec);
  Fig08(results);
  std::vector<Ratios> counter_ratios;
  for (const Counter& counter : kCounters) {
    counter_ratios.push_back(VsNative(results, spec, counter.metric));
  }
  Fig09(results, spec, counter_ratios);
  Fig10(results, spec, counter_ratios);
  Table1(results, spec);
  Table2(results, spec);
  Table4(results, spec, counter_ratios);
  AblationCodegenCauses(results);
  AblationFsGrowth();
  AblationPgo(results, polybench);
  return results.failed() ? 1 : 0;
}

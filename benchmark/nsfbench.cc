// nsfbench: the repository's benchmark program (benchmark/README.md).
//
//   nsfbench --workload W --seed S [--seconds T] [--work-dir D]
//            [--traced --trace-out FILE]
//
// Runs one workload in this process, calling only the engine's public API,
// so every layer is timed from outside. Prints one `name value unit` line per
// metric and `@key value` provenance lines. Exit status: 0 when every
// correctness check held, 1 when one failed (the metrics are still printed),
// 2 on a usage or setup error.
//
// The seed drives every random choice (arrival times, request order, key
// picks). Counters the simulator computes exactly are taken from a fixed set
// of runs, so they repeat bit for bit across runs and seeds.
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "nsf_build_id.h"
#include "src/codegen/artifact.h"
#include "src/codegen/verify.h"
#include "src/engine/ebr.h"
#include "src/engine/engine.h"
#include "src/engine/executor.h"
#include "src/engine/serving.h"
#include "src/machine/verify_decoded.h"
#include "src/polybench/polybench.h"
#include "src/spec/spec.h"
#include "src/telemetry/trace.h"
#include "src/wasm/artifact_codec.h"
#include "src/wasm/encoder.h"
#include "src/wasm/validator.h"

namespace nsf {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;
using Outputs = std::vector<std::pair<std::string, std::vector<uint8_t>>>;
namespace fs = std::filesystem;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void Metric(const std::string& name, double value, const char* unit) {
  printf("%s %.17g %s\n", name.c_str(), value, unit);
}

void Info(const std::string& key, const std::string& value) {
  printf("@%s %s\n", key.c_str(), value.c_str());
}

// SplitMix64, hand-rolled so a seed names the same inputs under every
// standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

// `count` indices into [0, n) as back-to-back seeded permutations: every key
// appears once per n picks, so the seed moves the order but not the mix.
std::vector<size_t> CycleOrder(size_t n, size_t count, Rng* rng) {
  std::vector<size_t> out;
  std::vector<size_t> perm(n);
  while (out.size() < count) {
    for (size_t i = 0; i < n; i++) {
      perm[i] = i;
    }
    for (size_t i = n; i > 1; i--) {
      std::swap(perm[i - 1], perm[rng->Below(i)]);
    }
    out.insert(out.end(), perm.begin(), perm.end());
  }
  out.resize(count);
  return out;
}

// Linear interpolation between closest ranks; 0 for an empty sample.
double Percentile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return 0;
  }
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double Sum(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) {
    s += x;
  }
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Every engine gets an explicit cache directory and size bound, so an
// ambient NSF_CACHE_DIR / NSF_CACHE_MAX_BYTES cannot change a run.
engine::EngineConfig Config(const std::string& cache_dir) {
  engine::EngineConfig c;
  c.cache_dir = cache_dir;
  c.disk_cache_max_bytes = 0;
  return c;
}

engine::InstanceOptions InstanceFor(const WorkloadSpec& spec) {
  engine::InstanceOptions o;
  o.argv = spec.argv;
  o.entry = spec.entry;
  o.fuel = spec.fuel;
  return o;
}

std::vector<CodegenOptions> PaperProfiles() {
  return {CodegenOptions::NativeClang(), CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM()};
}

// "native" / "chrome" / "firefox": the paper's three toolchains.
std::string ProfileClass(const std::string& profile_name) {
  if (profile_name == CodegenOptions::NativeClang().profile_name) {
    return "native";
  }
  if (profile_name == CodegenOptions::ChromeV8().profile_name) {
    return "chrome";
  }
  return "firefox";
}

// --- Correctness ---

// Shared by every thread of a run: the native-profile output references,
// the first counters seen per (key, compiled code), and the failure tally.
class Checker {
 public:
  void SetReference(const std::string& name, const Outputs& outputs) {
    std::lock_guard<std::mutex> lock(mu_);
    refs_[name] = outputs;
  }

  // One executed request: it ran, its outputs are cmp-equal to the native
  // reference (as SPEC validates), and its counters equal those of every
  // earlier run of the same key on the same compiled code.
  bool Check(const engine::RunRequest& req, const engine::BatchRunResult& r) {
    std::string key = req.spec.name + "/" + req.options.profile_name;
    if (!r.ok) {
      Fail(key + ": " + r.error);
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto ref = refs_.find(req.spec.name);
    if (ref == refs_.end() || ref->second != r.outputs) {
      FailLocked(key + ": output differs from the native reference");
      return false;
    }
    // A hot swap changes the code behind a key; minstrs and code_bytes tell
    // the tiers apart.
    std::string code = key + "/" + std::to_string(r.compile.minstrs) + "/" +
                       std::to_string(r.compile.code_bytes);
    auto [it, inserted] = counters_.emplace(code, r.outcome.counters);
    if (!inserted && !(it->second == r.outcome.counters)) {
      FailLocked(code + ": counters differ between runs");
      return false;
    }
    return true;
  }

  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    FailLocked(what);
  }

  uint64_t failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  void FailLocked(const std::string& what) {
    if (failures_++ < 20) {
      fprintf(stderr, "!! check failed: %s\n", what.c_str());
    }
  }

  mutable std::mutex mu_;
  std::map<std::string, Outputs> refs_;
  std::map<std::string, PerfCounters> counters_;
  uint64_t failures_ = 0;
};

// --- Exact simulated counters ---

// Counters of one fixed set of runs, each key once. The simulator is
// deterministic, so these repeat exactly on every run and every seed.
struct SimTotals {
  std::map<std::string, PerfCounters> by_class;
  std::map<std::string, std::map<std::string, uint64_t>> cycles;  // class -> program -> cycles
  uint64_t syscalls = 0;
  // Simulated seconds per key, in the kernel and in all, summed in key order
  // at the end: a sum of doubles in completion order would differ in its
  // last bits from run to run.
  std::map<std::string, std::pair<double, double>> seconds;

  void Add(const std::string& name, const std::string& profile_name,
           const engine::RunOutcome& out) {
    std::string cls = ProfileClass(profile_name);
    by_class[cls] += out.counters;
    cycles[cls][name] = out.counters.cycles();
    syscalls += out.syscalls;
    seconds[cls + "/" + name] = {out.browsix_seconds, out.seconds};
  }

  // Geomean over programs of profile cycles / native cycles (Figure 3b).
  double Slowdown(const std::string& cls) const {
    auto it = cycles.find(cls);
    auto nat = cycles.find("native");
    if (it == cycles.end() || nat == cycles.end()) {
      return 0;
    }
    double log_sum = 0;
    int n = 0;
    for (const auto& [name, c] : it->second) {
      auto base = nat->second.find(name);
      if (base != nat->second.end() && base->second > 0 && c > 0) {
        log_sum += std::log(static_cast<double>(c) / static_cast<double>(base->second));
        n++;
      }
    }
    return n > 0 ? std::exp(log_sum / n) : 0;
  }

  void Print() const {
    uint64_t total_cycles = 0;
    for (const std::string cls : {"native", "chrome", "firefox"}) {
      auto it = by_class.find(cls);
      PerfCounters c = it != by_class.end() ? it->second : PerfCounters();
      Metric("sim.cycles." + cls, static_cast<double>(c.cycles()), "count");
      Metric("sim.instructions." + cls, static_cast<double>(c.instructions_retired), "count");
      Metric("sim.l1i_misses." + cls, static_cast<double>(c.l1i_misses), "count");
      Metric("sim.l1d_misses." + cls, static_cast<double>(c.l1d_misses), "count");
      Metric("sim.taken_branches." + cls, static_cast<double>(c.taken_branches), "count");
      total_cycles += c.cycles();
    }
    Metric("sim.gcycles", static_cast<double>(total_cycles) * 1e-9, "Gcycles");
    Metric("sim.slowdown.chrome", Slowdown("chrome"), "x");
    Metric("sim.slowdown.firefox", Slowdown("firefox"), "x");
    Metric("kernel.syscalls", static_cast<double>(syscalls), "count");
    double browsix = 0;
    double total = 0;
    for (const auto& [key, s] : seconds) {
      browsix += s.first;
      total += s.second;
    }
    // Figure 4: the share of simulated time charged to the Browsix kernel.
    Metric("kernel.browsix_frac", Ratio(browsix, total), "frac");
  }
};

// Native-profile outputs of `specs` become the references, from a private
// engine; their counters join `sim`.
void ComputeReferences(const std::vector<WorkloadSpec>& specs, Checker* checker, SimTotals* sim) {
  engine::Engine eng(Config(""));
  engine::Session session(&eng);
  for (const WorkloadSpec& spec : specs) {
    engine::RunRequest req{spec, CodegenOptions::NativeClang()};
    engine::BatchRunResult r = engine::ExecuteRequest(&session, req, 0, 0, 0);
    if (!r.ok) {
      checker->Fail("reference " + spec.name + ": " + r.error);
      continue;
    }
    checker->SetReference(spec.name, r.outputs);
    sim->Add(spec.name, req.options.profile_name, r.outcome);
  }
}

// --- Engine counters over a phase ---

struct Counts {
  uint64_t cache_hits = 0, cache_misses = 0, lock_waits = 0, compiles = 0;
  uint64_t disk_hits = 0, disk_stores = 0, swaps = 0, recompiles = 0;

  static Counts Of(const engine::EngineStats& s) {
    return {s.cache_hits, s.cache_misses, s.lock_waits, s.compiles,
            s.disk_hits,  s.disk_stores,  s.tier_swaps, s.background_recompiles};
  }
  Counts& operator+=(const Counts& o) {
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    lock_waits += o.lock_waits;
    compiles += o.compiles;
    disk_hits += o.disk_hits;
    disk_stores += o.disk_stores;
    swaps += o.swaps;
    recompiles += o.recompiles;
    return *this;
  }
  Counts operator-(const Counts& o) const {
    return {cache_hits - o.cache_hits, cache_misses - o.cache_misses, lock_waits - o.lock_waits,
            compiles - o.compiles,     disk_hits - o.disk_hits,       disk_stores - o.disk_stores,
            swaps - o.swaps,           recompiles - o.recompiles};
  }
};

// --- Host threads ---

std::set<int> TaskIds() {
  std::set<int> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/proc/self/task", ec)) {
    out.insert(std::atoi(entry.path().filename().c_str()));
  }
  return out;
}

// CPU time of thread `tid` of this process in seconds, 0 once it has exited.
// Linux names a thread's CPU clock (~tid << 3) | CPUCLOCK_PERTHREAD |
// CPUCLOCK_SCHED, with nanosecond resolution (/proc's stat counts ticks).
double TaskCpuSeconds(int tid) {
  clockid_t clock = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6);
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double TasksCpuSeconds(const std::set<int>& tids) {
  double s = 0;
  for (int tid : tids) {
    s += TaskCpuSeconds(tid);
  }
  return s;
}

// --- Phases and layers ---

// One measured phase. Times are seconds.
struct Phase {
  std::vector<double> latency;  // per operation
  double wall = 0;              // the interval `completed` is counted over
  uint64_t completed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t sim_instructions = 0;
  double sim_wall = 0;                  // host seconds behind sim_instructions
  double busy = 0, busy_capacity = 0;   // client threads' busy time
  std::vector<double> lag, queue_wait;  // open loop only
  double makespan = 0;                  // batch only: summed pool.Run wall
  int batches = 0;
  Counts counts;

  double throughput() const { return Ratio(static_cast<double>(completed), wall); }
  double mean_latency() const {
    return latency.empty() ? 0 : Sum(latency) / static_cast<double>(latency.size());
  }
};

// Accumulated wall time of one timed call.
struct Acc {
  double seconds = 0;
  uint64_t calls = 0;
  double Mean() const { return calls == 0 ? 0 : seconds / static_cast<double>(calls); }
};

// Runs `fn`, adds its wall time to `acc` (and to `*also` when given), and
// returns its result.
template <class Fn>
auto Timed(Acc* acc, Fn&& fn, double* also = nullptr) {
  auto t0 = Clock::now();
  auto record = [&] {
    double s = SecondsSince(t0);
    acc->seconds += s;
    acc->calls++;
    if (also != nullptr) {
      *also += s;
    }
  };
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    record();
  } else {
    auto result = fn();
    record();
    return result;
  }
}

// The decomposition pass: each layer's public function timed on the
// workload's own inputs.
struct Layers {
  // Request path: ExecuteRequest whole, and the same requests by stages.
  Acc request, reset, build, hash, lookup, compile_hit, free_module, stage, instantiate, run;
  Acc read_outputs;
  uint64_t run_instructions = 0;
  uint64_t pool_acquires = 0, pool_reuses = 0;
  // Compile path: every key of the workload once.
  Acc validate, compile_native, compile_jit, verify_machine, predecode, verify_decoded;
  Acc serialize, deserialize, disk_store, disk_load, compile_cold, compile_warm;
  double request_builds = 0;  // the request pass's share of `build`
  double cold_stages = 0;     // the stages of the engine's cold compile, summed
  double warm_stages = 0;     // the stages of the engine's warm compile, summed
  CompileStats codegen;
  DecodeStats decode;

  void Print() const {
    Metric("engine.request_us", request.Mean() * 1e6, "us");
    Metric("engine.reset_us", reset.Mean() * 1e6, "us");
    Metric("builder.build_us", build.Mean() * 1e6, "us");
    Metric("wasm.hash_us", hash.Mean() * 1e6, "us");
    Metric("engine.lookup_ns", lookup.Mean() * 1e9, "ns");
    Metric("engine.compile_hit_us", compile_hit.Mean() * 1e6, "us");
    Metric("builder.free_us", free_module.Mean() * 1e6, "us");
    Metric("kernel.stage_us", stage.Mean() * 1e6, "us");
    Metric("engine.instantiate_us", instantiate.Mean() * 1e6, "us");
    Metric("machine.run_us", run.Mean() * 1e6, "us");
    Metric("kernel.read_outputs_us", read_outputs.Mean() * 1e6, "us");
    // compile_hit contains the hash and the lookup, so they are not added.
    double staged = reset.seconds + request_builds + compile_hit.seconds + free_module.seconds +
                    stage.seconds + instantiate.seconds + run.seconds + read_outputs.seconds;
    Metric("engine.unattributed_frac", request.calls > 0 ? 1 - staged / request.seconds : 0,
           "frac");
    Metric("machine.pool_reuse_frac",
           Ratio(static_cast<double>(pool_reuses), static_cast<double>(pool_acquires)), "frac");
    Metric("machine.ns_per_instr", Ratio(run.seconds * 1e9, static_cast<double>(run_instructions)),
           "ns");

    Metric("wasm.validate_us", validate.Mean() * 1e6, "us");
    Metric("codegen.compile_ms.native", compile_native.Mean() * 1e3, "ms");
    Metric("codegen.compile_ms.jit", compile_jit.Mean() * 1e3, "ms");
    Metric("codegen.verify_machine_us", verify_machine.Mean() * 1e6, "us");
    Metric("machine.predecode_us", predecode.Mean() * 1e6, "us");
    Metric("machine.verify_decoded_us", verify_decoded.Mean() * 1e6, "us");
    Metric("wasm.serialize_us", serialize.Mean() * 1e6, "us");
    Metric("wasm.deserialize_us", deserialize.Mean() * 1e6, "us");
    Metric("disk.store_us", disk_store.Mean() * 1e6, "us");
    Metric("disk.load_us", disk_load.Mean() * 1e6, "us");
    Metric("engine.compile_cold_ms", compile_cold.Mean() * 1e3, "ms");
    Metric("engine.compile_warm_ms", compile_warm.Mean() * 1e3, "ms");
    Metric("start.unattributed_frac",
           compile_cold.calls > 0 ? 1 - cold_stages / compile_cold.seconds : 0, "frac");
    Metric("start.warm_unattributed_frac",
           compile_warm.calls > 0 ? 1 - warm_stages / compile_warm.seconds : 0, "frac");
    Metric("codegen.vops", static_cast<double>(codegen.vops), "count");
    Metric("codegen.minstrs", static_cast<double>(codegen.minstrs), "count");
    Metric("codegen.spill_slots", static_cast<double>(codegen.spill_slots), "count");
    Metric("codegen.code_bytes", static_cast<double>(codegen.code_bytes), "bytes");
    Metric("decode.records", static_cast<double>(decode.records), "count");
    Metric("decode.fused_pairs", static_cast<double>(decode.fused_pairs), "count");
    Metric("decode.generic", static_cast<double>(decode.generic), "count");
  }
};

// One request by stages, the way ExecuteRequest runs it.
void StagedRequest(engine::Engine* eng, engine::Session* session, const engine::RunRequest& req,
                   Checker* checker, Layers* L) {
  Timed(&L->reset, [&] { session->Reset(); });
  Module module = Timed(&L->build, [&] { return req.spec.build(); }, &L->request_builds);
  engine::CompiledModuleRef code =
      Timed(&L->compile_hit, [&] { return eng->Compile(module, req.options); });
  // CompileWorkload frees its module right after the lookup.
  Timed(&L->free_module, [&] { Module discarded = std::move(module); });
  if (req.spec.setup) {
    Timed(&L->stage, [&] { req.spec.setup(session->kernel()); });
  }
  std::unique_ptr<engine::Instance> inst = Timed(
      &L->instantiate, [&] { return session->Instantiate(code, InstanceFor(req.spec)); });
  if (inst == nullptr) {
    checker->Fail(req.spec.name + ": instantiate failed in the decomposition pass");
    return;
  }
  uint64_t acquires = session->buffer_pool().acquires();
  uint64_t reuses = session->buffer_pool().reuses();
  engine::RunOutcome out = Timed(&L->run, [&] { return inst->Run(); });
  L->pool_acquires += session->buffer_pool().acquires() - acquires;
  L->pool_reuses += session->buffer_pool().reuses() - reuses;
  L->run_instructions += out.counters.instructions_retired;
  Timed(&L->read_outputs, [&] {
    for (const std::string& path : req.spec.output_files) {
      std::vector<uint8_t> bytes;
      session->fs().ReadFile(path, &bytes);
    }
  });
}

// Runs `a` and `b` in an order that alternates with `i`, so that neither
// always finds the caches the other just warmed.
template <class A, class B>
void Alternate(size_t i, A&& a, B&& b) {
  if (i % 2 == 0) {
    a();
    b();
  } else {
    b();
    a();
  }
}

// The request path of `keys`, in seeded order, for about `budget` seconds
// (at least one block): each block of requests once whole and once by
// stages. Both see the same sequence of keys, so the same cache misses.
void RequestLayers(engine::Engine* eng, const std::vector<engine::RunRequest>& keys,
                   double budget, Rng* rng, Checker* checker, Layers* L) {
  constexpr size_t kBlock = 4;
  engine::Session session(eng);
  // The session's first run allocates and first-touches the simulated
  // machine's buffers; keep that out of both sides.
  checker->Check(keys[0], engine::ExecuteRequest(&session, keys[0], 0, 0, 0));
  std::vector<size_t> order = CycleOrder(keys.size(), keys.size() * 64, rng);
  auto t0 = Clock::now();
  for (size_t block = 0; block * kBlock + kBlock <= order.size() &&
                         (block == 0 || SecondsSince(t0) < budget);
       block++) {
    auto whole = [&] {
      for (size_t i = block * kBlock; i < (block + 1) * kBlock; i++) {
        const engine::RunRequest& req = keys[order[i]];
        engine::BatchRunResult r =
            Timed(&L->request, [&] { return engine::ExecuteRequest(&session, req, 0, 0, 0); });
        checker->Check(req, r);
      }
    };
    auto staged = [&] {
      for (size_t i = block * kBlock; i < (block + 1) * kBlock; i++) {
        StagedRequest(eng, &session, keys[order[i]], checker, L);
      }
    };
    Alternate(block, whole, staged);
  }
  // Two parts of Engine::Compile's hit path, timed apart from the sequence
  // above so they do not warm its caches.
  for (const engine::RunRequest& req : keys) {
    Module module = req.spec.build();
    uint64_t hash = Timed(&L->hash, [&] { return HashModule(module); });
    uint64_t fingerprint = req.options.Fingerprint();
    Timed(&L->lookup, [&] { return eng->cache().Lookup(hash, fingerprint); });
  }
}

// The compile path of every key once: each stage alone, and the engine's
// cold compile (into an empty cache directory) and warm compile (from it).
void CompileLayers(const std::vector<engine::RunRequest>& keys, const fs::path& dir,
                   Checker* checker, Layers* L) {
  fs::remove_all(dir);
  const std::string engine_dir = (dir / "engine").string();
  {
    engine::Engine cold(Config(engine_dir));
    engine::DiskCodeCache stage_disk((dir / "stages").string(), 0);
    for (size_t i = 0; i < keys.size(); i++) {
      const engine::RunRequest& req = keys[i];
      const CodegenOptions& opts = req.options;
      // The stages of a cold Engine::Compile, in its order, add into
      // cold_stages. The machine verifier runs inside BuildArtifact only
      // when verify_ir is set; the disk lease and the failed disk probe are
      // left unattributed.
      double* path = &L->cold_stages;
      auto staged = [&] {
        Module module = Timed(&L->build, [&] { return req.spec.build(); }, path);
        uint64_t hash = Timed(&L->hash, [&] { return HashModule(module); }, path);
        ValidationResult vr = Timed(&L->validate, [&] { return ValidateModule(module); }, path);
        Acc* compile = ProfileClass(opts.profile_name) == "native" ? &L->compile_native
                                                                   : &L->compile_jit;
        CompiledArtifact art = Timed(
            compile, [&] { return BuildArtifact(module, opts, hash, opts.Fingerprint()); }, path);
        if (!vr.ok || !art.ok()) {
          checker->Fail(req.spec.name + ": compile failed in the decomposition pass");
          return;
        }
        L->codegen.vops += art.stats().vops;
        L->codegen.minstrs += art.stats().minstrs;
        L->codegen.spill_slots += art.stats().spill_slots;
        L->codegen.code_bytes += art.stats().code_bytes;
        Timed(&L->verify_machine, [&] { return VerifyMachine(art.program()); });
        DecodedProgram dp = Timed(&L->predecode, [&] { return Predecode(art.program()); }, path);
        L->decode.records += dp.stats.records;
        L->decode.fused_pairs += dp.stats.fused_pairs;
        L->decode.generic += dp.stats.generic;
        Timed(&L->verify_decoded, [&] { return VerifyDecodedProgram(art.program(), dp); },
              opts.verify_ir ? path : nullptr);
        std::vector<uint8_t> bytes = Timed(&L->serialize, [&] { return SerializeArtifact(art); });
        CompiledArtifact back;
        std::string err;
        if (!Timed(&L->deserialize, [&] { return DeserializeArtifact(bytes, &back, &err); })) {
          checker->Fail(req.spec.name + ": artifact round trip failed: " + err);
        }
        // Store serializes, writes and renames the file.
        Timed(&L->disk_store, [&] { stage_disk.Store(art); }, path);
      };
      auto whole = [&] {
        engine::CompileInfo info;
        engine::CompiledModuleRef code =
            Timed(&L->compile_cold, [&] { return cold.CompileWorkload(req.spec, opts, &info); });
        if (!code->ok || !info.compiled) {
          checker->Fail(req.spec.name + ": the cold engine did not compile");
        }
      };
      Alternate(i, whole, staged);
    }
  }
  engine::Engine warm(Config(engine_dir));
  engine::DiskCodeCache stage_disk(engine_dir, 0);
  for (size_t i = 0; i < keys.size(); i++) {
    const engine::RunRequest& req = keys[i];
    double* path = &L->warm_stages;
    auto staged = [&] {
      Module module = Timed(&L->build, [&] { return req.spec.build(); }, path);
      uint64_t hash = Timed(&L->hash, [&] { return HashModule(module); }, path);
      CompiledArtifact art;
      if (!Timed(&L->disk_load,
                 [&] { return stage_disk.Load(hash, req.options.Fingerprint(), &art); }, path)) {
        checker->Fail(req.spec.name + ": no artifact on disk after the cold pass");
        return;
      }
      Timed(&L->verify_machine, [&] { return VerifyMachine(art.program()); }, path);
      DecodedProgram dp = Timed(&L->predecode, [&] { return Predecode(art.program()); }, path);
#if defined(NSF_VERIFY_IR) || !defined(NDEBUG)
      // The engine verifies the decoded program of every disk load in these builds.
      Timed(&L->verify_decoded, [&] { return VerifyDecodedProgram(art.program(), dp); }, path);
#endif
    };
    auto whole = [&] {
      engine::CompileInfo info;
      engine::CompiledModuleRef code = Timed(
          &L->compile_warm, [&] { return warm.CompileWorkload(req.spec, req.options, &info); });
      if (!code->ok || !info.disk_loaded) {
        checker->Fail(req.spec.name + ": the warm engine did not load from disk");
      }
    };
    Alternate(i, whole, staged);
  }
}

// --- Workloads ---

class Workload {
 public:
  Workload(Checker* checker, SimTotals* sim, fs::path work)
      : checker_(checker), sim_(sim), work_(std::move(work)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Untimed: the output references every set-up and phase checks against.
  virtual void Prepare() {}
  // Brings a fresh system to its measured state. Timed and repeated; the
  // last one is measured. The first one's runs give the exact counters.
  virtual void SetUp(bool first, Rng* rng) = 0;
  virtual Phase Measure(double seconds, Rng* rng) = 0;
  virtual void Decompose(double budget, Rng* rng, Layers* layers) = 0;
  // Threads the system started on its own; their CPU is engine.bg_cpu_s.
  virtual std::set<int> BackgroundTasks() const { return {}; }

 protected:
  Checker* checker_;
  SimTotals* sim_;
  fs::path work_;
};

// Runs `req` on `session` as one measured operation.
engine::BatchRunResult Execute(engine::Session* session, const engine::RunRequest& req) {
  telemetry::Span span("execute_request", "bench");
  return engine::ExecuteRequest(session, req, 0, 0, 0);
}

// call-small: one client calling ExecuteRequest back to back on small
// matmuls, where per-request fixed costs are a large share of each call.
class CallSmall : public Workload {
 public:
  using Workload::Workload;

  void Prepare() override {
    std::vector<WorkloadSpec> specs;
    for (int n = 4; n <= 8; n++) {
      specs.push_back(MatmulSpec(n));
      for (const CodegenOptions& opts : {CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM()}) {
        keys_.push_back({MatmulSpec(n), opts});
      }
    }
    ComputeReferences(specs, checker_, sim_);
  }

  void SetUp(bool first, Rng*) override {
    session_.reset();
    engine_ = std::make_unique<engine::Engine>(Config(""));
    session_ = std::make_unique<engine::Session>(engine_.get());
    for (const engine::RunRequest& req : keys_) {
      engine::BatchRunResult r = engine::ExecuteRequest(session_.get(), req, 0, 0, 0);
      if (checker_->Check(req, r) && first) {
        sim_->Add(req.spec.name, req.options.profile_name, r.outcome);
      }
    }
  }

  Phase Measure(double seconds, Rng* rng) override {
    Phase p;
    Counts before = Counts::Of(engine_->Stats());
    auto t0 = Clock::now();
    while (SecondsSince(t0) < seconds) {
      const engine::RunRequest& req = keys_[rng->Below(keys_.size())];
      auto t = Clock::now();
      engine::BatchRunResult r = Execute(session_.get(), req);
      double latency = SecondsSince(t);
      p.latency.push_back(latency);
      p.busy += latency;
      p.attempted++;
      if (checker_->Check(req, r)) {
        p.completed++;
        p.sim_instructions += r.outcome.counters.instructions_retired;
      } else {
        p.failed++;
      }
    }
    p.wall = SecondsSince(t0);
    p.busy_capacity = p.wall;
    p.sim_wall = p.busy;
    p.counts = Counts::Of(engine_->Stats()) - before;
    return p;
  }

  void Decompose(double budget, Rng* rng, Layers* layers) override {
    RequestLayers(engine_.get(), keys_, budget, rng, checker_, layers);
    CompileLayers(keys_, work_ / "layers", checker_, layers);
  }

 private:
  std::vector<engine::RunRequest> keys_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<engine::Session> session_;  // destroyed before engine_
};

// serve-polybench: open-loop Poisson arrivals at a fixed rate onto two
// worker threads, then a closed-loop saturation phase on the same workers,
// with sampled profiling and the background tierer on.
class ServePolybench : public Workload {
 public:
  using Workload::Workload;

  // About 0.3x the two workers' capacity: at 0.5x, a host slowdown of 10%
  // moved the queueing tail by half, run to run.
  static constexpr double kRateRps = 12;
  static constexpr double kCapacityRps = 40;  // sizes the saturation phase
  static constexpr double kOpenShare = 0.7;   // of the phase; the rest saturates
  static constexpr int kWorkers = 2;

  void Prepare() override {
    std::vector<WorkloadSpec> specs;
    for (const std::string& name : PolybenchKernelNames()) {
      specs.push_back(PolybenchSpec(name));
      keys_.push_back({PolybenchSpec(name), CodegenOptions::ChromeV8()});
    }
    ComputeReferences(specs, checker_, sim_);
  }

  void SetUp(bool first, Rng*) override {
    engine_.reset();
    std::set<int> before = TaskIds();
    engine::EngineConfig config = Config("");
    config.sample_period = 64;
    config.background_tiering = true;
    engine_ = std::make_unique<engine::Engine>(config);
    tierer_tasks_.clear();
    for (int tid : TaskIds()) {
      if (before.count(tid) == 0) {
        tierer_tasks_.insert(tid);
      }
    }
    engine::Session session(engine_.get());
    for (const engine::RunRequest& req : keys_) {
      engine::BatchRunResult r = engine::ExecuteRequest(&session, req, 0, 0, 0);
      if (checker_->Check(req, r) && first) {
        sim_->Add(req.spec.name, req.options.profile_name, r.outcome);
      }
    }
    engine_->DrainTierer();
  }

  std::set<int> BackgroundTasks() const override { return tierer_tasks_; }

  Phase Measure(double seconds, Rng* rng) override;

  void Decompose(double budget, Rng* rng, Layers* layers) override {
    RequestLayers(engine_.get(), keys_, budget, rng, checker_, layers);
    CompileLayers(keys_, work_ / "layers", checker_, layers);
  }

 private:
  std::vector<engine::RunRequest> keys_;
  std::unique_ptr<engine::Engine> engine_;
  std::set<int> tierer_tasks_;
};

Phase ServePolybench::Measure(double seconds, Rng* rng) {
  struct Job {
    double due;
    size_t key;
  };
  struct WorkerOut {
    std::vector<double> latency, queue_wait;
    double busy = 0;
    uint64_t attempted = 0, failed = 0, saturated = 0, sim_instructions = 0;
    double sim_wall = 0;
    Clock::time_point last_end;
  };

  // Both phases serve whole cycles of the kernels, so every run has the same
  // mix (the kernels' service times are clustered, and a partial cycle moved
  // the median between clusters). The run length sets the counts at the
  // nominal rates; the seed draws the arrival gaps and the order.
  const size_t n = keys_.size();
  auto cycles = [&](double phase_seconds, double rate) {
    return n * std::max<size_t>(1, static_cast<size_t>(phase_seconds * rate / n));
  };
  const size_t open_count = cycles(seconds * kOpenShare, kRateRps);
  const size_t saturation_count = cycles(seconds * (1 - kOpenShare), kCapacityRps);
  engine::ArrivalConfig arrivals_config;
  arrivals_config.rate_rps = kRateRps;
  arrivals_config.seed = rng->Next();
  std::vector<double> arrivals =
      engine::GenerateArrivals(arrivals_config, 2 * static_cast<double>(open_count) / kRateRps);
  if (arrivals.size() < open_count) {
    checker_->Fail("serve: the arrival schedule is short");
  }
  arrivals.resize(std::min(arrivals.size(), open_count));
  std::vector<size_t> open_order = CycleOrder(n, arrivals.size(), rng);
  std::vector<size_t> saturation_order = CycleOrder(n, saturation_count, rng);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Job> queue;  // guarded by mu
  bool closed = false;    // guarded by mu: the generator is done
  int drained = 0;        // guarded by mu: workers done with the open loop
  bool saturate = false;  // guarded by mu
  Clock::time_point saturation_start;  // set under mu
  std::atomic<size_t> saturation_next{0};
  std::vector<WorkerOut> outs(kWorkers);
  std::vector<double> lag;
  const bool traced = telemetry::TraceEnabled();
  Counts before = Counts::Of(engine_->Stats());
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto due_at = [&](double due) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due));
  };

  auto worker = [&](int w) {
    if (traced) {
      telemetry::TraceRecorder::Global().SetThreadName("bench-worker-" + std::to_string(w));
    }
    engine::Session session(engine_.get());
    WorkerOut& out = outs[w];
    auto run = [&](size_t key) {
      const engine::RunRequest& req = keys_[key];
      auto start = Clock::now();
      engine::BatchRunResult r = Execute(&session, req);
      out.last_end = Clock::now();
      out.attempted++;
      bool ok = checker_->Check(req, r);
      if (ok) {
        out.sim_instructions += r.outcome.counters.instructions_retired;
        out.sim_wall += std::chrono::duration<double>(out.last_end - start).count();
      } else {
        out.failed++;
      }
      return std::make_pair(start, ok);
    };
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || closed; });
        if (queue.empty()) {
          break;
        }
        job = queue.front();
        queue.pop_front();
      }
      Clock::time_point due = due_at(job.due);
      auto [start, ok] = run(job.key);
      out.latency.push_back(std::chrono::duration<double>(out.last_end - due).count());
      out.queue_wait.push_back(std::chrono::duration<double>(start - due).count());
      out.busy += std::chrono::duration<double>(out.last_end - start).count();
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      drained++;
      cv.notify_all();
      cv.wait(lock, [&] { return saturate; });
    }
    for (size_t i = saturation_next.fetch_add(1); i < saturation_order.size();
         i = saturation_next.fetch_add(1)) {
      if (run(saturation_order[i]).second) {
        out.saturated++;
      }
    }
  };

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; w++) {
    workers.emplace_back(worker, w);
  }
  std::thread generator([&] {
    if (traced) {
      telemetry::TraceRecorder::Global().SetThreadName("bench-generator");
    }
    for (size_t i = 0; i < arrivals.size(); i++) {
      Clock::time_point due = due_at(arrivals[i]);
      std::this_thread::sleep_until(due);
      lag.push_back(std::chrono::duration<double>(Clock::now() - due).count());
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(Job{arrivals[i], open_order[i]});
      }
      cv.notify_all();
    }
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
    cv.notify_all();
  });
  generator.join();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return drained == kWorkers; });
    saturation_start = Clock::now();
    saturate = true;
  }
  cv.notify_all();
  for (std::thread& t : workers) {
    t.join();
  }

  Phase p;
  Clock::time_point saturation_end = saturation_start;
  for (const WorkerOut& out : outs) {
    p.latency.insert(p.latency.end(), out.latency.begin(), out.latency.end());
    p.queue_wait.insert(p.queue_wait.end(), out.queue_wait.begin(), out.queue_wait.end());
    p.busy += out.busy;
    p.attempted += out.attempted;
    p.failed += out.failed;
    p.completed += out.saturated;
    p.sim_instructions += out.sim_instructions;
    p.sim_wall += out.sim_wall;
    saturation_end = std::max(saturation_end, out.last_end);
  }
  // Capacity: completions of the saturation phase over its span.
  p.wall = std::chrono::duration<double>(saturation_end - saturation_start).count();
  p.busy_capacity = kWorkers * (arrivals.empty() ? 0 : arrivals.back());
  p.lag = std::move(lag);
  p.counts = Counts::Of(engine_->Stats()) - before;
  // Every offered request left the open loop as completed or failed.
  if (p.latency.size() != arrivals.size()) {
    checker_->Fail("serve: " + std::to_string(p.latency.size()) + " requests finished of " +
                   std::to_string(arrivals.size()) + " offered");
  }
  return p;
}

// batch-spec: the paper's experiment. Passes over the SPEC stand-ins under
// the three toolchains through a two-worker ExecutorPool, LPT-ordered by the
// run history of a native set-up pass.
class BatchSpec : public Workload {
 public:
  using Workload::Workload;

  static constexpr int kWorkers = 2;

  void Prepare() override {
    for (const std::string& name : SpecWorkloadNames()) {
      for (const CodegenOptions& opts : PaperProfiles()) {
        keys_.push_back({SpecWorkload(name), opts});
      }
    }
  }

  void SetUp(bool first, Rng*) override {
    pool_.reset();
    engine_ = std::make_unique<engine::Engine>(Config(""));
    pool_ = std::make_unique<engine::ExecutorPool>(engine_.get(), kWorkers);
    std::vector<engine::RunRequest> native;
    for (const engine::RunRequest& req : keys_) {
      if (ProfileClass(req.options.profile_name) == "native") {
        native.push_back(req);
      } else if (!engine_->CompileWorkload(req.spec, req.options)->ok) {
        checker_->Fail(req.spec.name + "/" + req.options.profile_name + ": compile failed");
      }
    }
    engine::BatchReport report = pool_->Run(native);
    for (const engine::BatchRunResult& r : report.runs) {
      const engine::RunRequest& req = native[r.request_index];
      if (first && r.ok) {
        checker_->SetReference(req.spec.name, r.outputs);
      }
      checker_->Check(req, r);
    }
  }

  Phase Measure(double seconds, Rng* rng) override {
    Phase p;
    Counts before = Counts::Of(engine_->Stats());
    auto t0 = Clock::now();
    double last = 0;
    // Whole passes only, so every pass runs the same mix.
    do {
      std::vector<engine::RunRequest> pass;
      for (size_t i : CycleOrder(keys_.size(), keys_.size(), rng)) {
        pass.push_back(keys_[i]);
      }
      engine::BatchReport report;
      {
        telemetry::Span span("pool_run", "bench");
        report = pool_->Run(pass);
      }
      for (const engine::BatchRunResult& r : report.runs) {
        const engine::RunRequest& req = pass[r.request_index];
        p.latency.push_back(r.wall_seconds);
        p.busy += r.wall_seconds;
        p.attempted++;
        if (checker_->Check(req, r)) {
          p.completed++;
          p.sim_instructions += r.outcome.counters.instructions_retired;
          p.sim_wall += r.wall_seconds;
          if (!sim_recorded_) {
            sim_->Add(req.spec.name, req.options.profile_name, r.outcome);
          }
        } else {
          p.failed++;
        }
      }
      sim_recorded_ = true;
      last = report.wall_seconds;
      p.makespan += report.wall_seconds;
      p.busy_capacity += kWorkers * report.wall_seconds;
      p.batches++;
    } while (SecondsSince(t0) + last <= seconds);
    p.wall = p.makespan;
    p.counts = Counts::Of(engine_->Stats()) - before;
    return p;
  }

  void Decompose(double budget, Rng* rng, Layers* layers) override {
    RequestLayers(engine_.get(), keys_, budget, rng, checker_, layers);
    CompileLayers(keys_, work_ / "layers", checker_, layers);
  }

 private:
  std::vector<engine::RunRequest> keys_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<engine::ExecutorPool> pool_;  // destroyed before engine_
  bool sim_recorded_ = false;
};

// start-cold / start-warm: a fresh Engine and Session compile and
// instantiate all 38 programs under the three toolchains, from an empty
// cache directory (cold: every key compiles and is stored) or from a
// populated one (warm: every key loads from disk).
class Start : public Workload {
 public:
  Start(Checker* checker, SimTotals* sim, fs::path work, bool warm)
      : Workload(checker, sim, std::move(work)), warm_(warm) {}

  void Prepare() override {
    std::vector<WorkloadSpec> specs;
    for (const std::string& name : PolybenchKernelNames()) {
      specs.push_back(PolybenchSpec(name));
    }
    for (const std::string& name : SpecWorkloadNames()) {
      specs.push_back(SpecWorkload(name));
    }
    for (const WorkloadSpec& spec : specs) {
      for (const CodegenOptions& opts : PaperProfiles()) {
        keys_.push_back({spec, opts});
      }
    }
  }

  void SetUp(bool, Rng* rng) override {
    Phase ignored;
    fs::path dir = work_ / (warm_ ? "warm" : "setup");
    fs::remove_all(dir);
    StartOnce(dir, false, rng, &ignored);
    if (!warm_) {
      fs::remove_all(dir);
    }
  }

  Phase Measure(double seconds, Rng* rng) override {
    Phase p;
    fs::path dir = work_ / (warm_ ? "warm" : "cold");
    auto t0 = Clock::now();
    do {
      if (!warm_) {
        fs::remove_all(dir);
      }
      StartOnce(dir, warm_, rng, &p);
    } while (SecondsSince(t0) < seconds);
    if (!warm_) {
      fs::remove_all(dir);
    }
    p.wall = p.busy;
    p.busy_capacity = SecondsSince(t0);
    return p;
  }

  void Decompose(double, Rng*, Layers* layers) override {
    CompileLayers(keys_, work_ / "layers", checker_, layers);
  }

 private:
  // One start against `dir`, in seeded key order. Checks the engine's
  // accounting and that every key's compile stats equal the first start's.
  void StartOnce(const fs::path& dir, bool expect_warm, Rng* rng, Phase* p) {
    std::vector<size_t> order = CycleOrder(keys_.size(), keys_.size(), rng);
    std::vector<CompileStats> stats(keys_.size());
    bool ok = true;
    auto t0 = Clock::now();
    std::unique_ptr<engine::Engine> eng;
    std::unique_ptr<engine::Session> session;
    {
      telemetry::Span span("start", "bench");
      eng = std::make_unique<engine::Engine>(Config(dir.string()));
      session = std::make_unique<engine::Session>(eng.get());
      for (size_t k : order) {
        const engine::RunRequest& req = keys_[k];
        engine::CompiledModuleRef code;
        {
          telemetry::Span compile_span("compile_workload", "bench");
          code = eng->CompileWorkload(req.spec, req.options);
        }
        std::unique_ptr<engine::Instance> inst;
        std::string err;
        {
          telemetry::Span instantiate_span("instantiate", "bench");
          inst = session->Instantiate(code, InstanceFor(req.spec), &err);
        }
        if (inst == nullptr) {
          checker_->Fail(req.spec.name + "/" + req.options.profile_name + ": " + err);
          ok = false;
          continue;
        }
        stats[k] = code->stats();
      }
    }
    double seconds = SecondsSince(t0);
    engine::EngineStats es = eng->Stats();
    session.reset();
    eng.reset();

    uint64_t n = keys_.size();
    if (expect_warm ? (es.compiles != 0 || es.disk_hits != n)
                    : (es.compiles != n || es.disk_stores != n)) {
      checker_->Fail("start: " + std::to_string(es.compiles) + " compiles, " +
                     std::to_string(es.disk_hits) + " disk hits, " +
                     std::to_string(es.disk_stores) + " disk stores for " + std::to_string(n) +
                     (expect_warm ? " keys (warm)" : " keys (cold)"));
      ok = false;
    }
    if (reference_.empty()) {
      reference_ = stats;
    }
    for (size_t k = 0; k < n; k++) {
      const CompileStats& a = stats[k];
      const CompileStats& b = reference_[k];
      if (a.vops != b.vops || a.minstrs != b.minstrs || a.spill_slots != b.spill_slots ||
          a.code_bytes != b.code_bytes) {
        checker_->Fail(keys_[k].spec.name + "/" + keys_[k].options.profile_name +
                       ": compile stats differ from the first start");
        ok = false;
      }
    }
    p->latency.push_back(seconds);
    p->busy += seconds;
    p->attempted++;
    p->completed += ok ? 1 : 0;
    p->failed += ok ? 0 : 1;
    p->counts += Counts::Of(es);
  }

  bool warm_;
  std::vector<engine::RunRequest> keys_;
  std::vector<CompileStats> reference_;
};

// --- Provenance ---

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FsType(const fs::path& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) {
    return "unknown";
  }
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char hex[32];
      snprintf(hex, sizeof(hex), "0x%llx", static_cast<unsigned long long>(st.f_type));
      return hex;
    }
  }
}

void PrintProvenance(const std::string& workload, uint64_t seed, double seconds, bool traced,
                     const fs::path& work) {
  char fingerprint[32];
  snprintf(fingerprint, sizeof(fingerprint), "%016llx",
           static_cast<unsigned long long>(kNsfSourceFingerprint));
  Info("host.nproc", std::to_string(std::thread::hardware_concurrency()));
  Info("host.cpu_model", CpuModel());
  Info("build.compiler", NSF_BENCH_COMPILER);
  Info("build.type", NSF_BENCH_BUILD_TYPE);
  Info("build.source_fingerprint", fingerprint);
  Info("run.workload", workload);
  Info("run.seed", std::to_string(seed));
  Info("run.seconds", std::to_string(seconds));
  Info("run.traced", traced ? "1" : "0");
  Info("run.work_dir_fs", FsType(work));
}

// --- Main ---

constexpr const char* kWorkloads[] = {"serve-polybench", "call-small", "batch-spec",
                                      "start-cold", "start-warm"};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Checker* checker,
                                       SimTotals* sim, const fs::path& work) {
  if (name == "serve-polybench") {
    return std::make_unique<ServePolybench>(checker, sim, work);
  }
  if (name == "call-small") {
    return std::make_unique<CallSmall>(checker, sim, work);
  }
  if (name == "batch-spec") {
    return std::make_unique<BatchSpec>(checker, sim, work);
  }
  if (name == "start-cold" || name == "start-warm") {
    return std::make_unique<Start>(checker, sim, work, name == "start-warm");
  }
  return nullptr;
}

int Usage() {
  fprintf(stderr,
          "usage: nsfbench --workload W --seed S [--seconds T] [--work-dir D]\n"
          "                [--traced --trace-out FILE]\n  workloads:");
  for (const char* w : kWorkloads) {
    fprintf(stderr, " %s", w);
  }
  fprintf(stderr, "\n");
  return 2;
}

// Set-up repeats at least kMinSetups times and until kSetupSeconds have
// passed, at most kMaxSetups times; setup_s is the median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupSeconds = 1.0;

int Main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  fs::path work = "nsfbench-work";
  uint64_t seed = 0;
  double seconds = 10;
  bool traced = false;
  bool have_seed = false;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--work-dir" && has_value) {
      work = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--traced") {
      traced = true;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !(seconds > 0) || (traced && trace_out.empty())) {
    return Usage();
  }
  Checker checker;
  SimTotals sim;
  std::unique_ptr<Workload> w = MakeWorkload(workload, &checker, &sim, work);
  if (w == nullptr) {
    return Usage();
  }
  std::error_code ec;
  fs::create_directories(work, ec);
  if (ec) {
    fprintf(stderr, "cannot create %s: %s\n", work.c_str(), ec.message().c_str());
    return 2;
  }
  PrintProvenance(workload, seed, seconds, traced, work);

  Rng rng(seed);
  w->Prepare();
  std::vector<double> setups;
  auto setup_t0 = Clock::now();
  while (setups.size() < kMinSetups ||
         (setups.size() < kMaxSetups && SecondsSince(setup_t0) < kSetupSeconds)) {
    auto t = Clock::now();
    w->SetUp(setups.empty(), &rng);
    setups.push_back(SecondsSince(t));
  }

  std::set<int> background = w->BackgroundTasks();
  double background_cpu = TasksCpuSeconds(background);
  // A traced run measures half the phase untraced and half traced; the
  // ratio of their mean operation latencies is the tracing overhead.
  Phase phase = w->Measure(traced ? seconds / 2 : seconds, &rng);
  Phase traced_phase;
  uint64_t dropped = 0;
  if (traced) {
    telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::Global();
    recorder.Start(trace_out, size_t{1} << 20);
    recorder.SetThreadName("bench-main");
    traced_phase = w->Measure(seconds / 2, &rng);
    recorder.Stop();
    if (!recorder.Flush()) {
      return 2;
    }
    dropped = recorder.dropped();
  }
  background_cpu = TasksCpuSeconds(background) - background_cpu;

  Metric("latency_p50_ms", Percentile(phase.latency, 0.50) * 1e3, "ms");
  Metric("latency_mean_ms", phase.mean_latency() * 1e3, "ms");
  Metric("latency_p90_ms", Percentile(phase.latency, 0.90) * 1e3, "ms");
  Metric("latency_p99_ms", Percentile(phase.latency, 0.99) * 1e3, "ms");
  Metric("latency_samples", static_cast<double>(phase.latency.size()), "count");
  Metric("throughput_per_s", phase.throughput(), "1/s");
  Metric("setup_s", Percentile(setups, 0.5), "s");
  Metric("setup_reps", static_cast<double>(setups.size()), "count");

  Metric("client.lag_p99_ms", Percentile(phase.lag, 0.99) * 1e3, "ms");
  Metric("client.queue_wait_p50_ms", Percentile(phase.queue_wait, 0.50) * 1e3, "ms");
  Metric("client.queue_wait_p99_ms", Percentile(phase.queue_wait, 0.99) * 1e3, "ms");
  // batch-spec's busy threads are the pool's workers; its main thread only waits.
  double busy_frac = Ratio(phase.busy, phase.busy_capacity);
  Metric("client.busy_frac", phase.batches > 0 ? 0 : busy_frac, "frac");
  Metric("executor.busy_frac", phase.batches > 0 ? busy_frac : 0, "frac");
  Metric("executor.makespan_s", phase.batches > 0 ? phase.makespan / phase.batches : 0, "s");
  Metric("machine.sim_mips", Ratio(static_cast<double>(phase.sim_instructions) * 1e-6,
                                   phase.sim_wall),
         "Minstr/s");
  Metric("engine.cache_hits", static_cast<double>(phase.counts.cache_hits), "count");
  Metric("engine.cache_misses", static_cast<double>(phase.counts.cache_misses), "count");
  Metric("engine.lock_waits", static_cast<double>(phase.counts.lock_waits), "count");
  Metric("engine.compiles", static_cast<double>(phase.counts.compiles), "count");
  Metric("engine.disk_hits", static_cast<double>(phase.counts.disk_hits), "count");
  Metric("engine.disk_stores", static_cast<double>(phase.counts.disk_stores), "count");
  Metric("tierer.swaps", static_cast<double>(phase.counts.swaps), "count");
  Metric("tierer.recompiles", static_cast<double>(phase.counts.recompiles), "count");
  Metric("engine.bg_cpu_s", background_cpu, "s");
  Metric("ebr.backlog", static_cast<double>(ebr::EbrDomain::Global().pending()), "count");

  if (traced) {
    Metric("trace.overhead_frac",
           Ratio(traced_phase.mean_latency(), phase.mean_latency()) - 1, "frac");
    Metric("trace.dropped", static_cast<double>(dropped), "count");
    Metric("trace.ops", static_cast<double>(traced_phase.attempted), "count");
    Layers layers;
    w->Decompose(seconds / 4, &rng, &layers);
    layers.Print();
  }
  sim.Print();

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  Metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  uint64_t attempted = phase.attempted + traced_phase.attempted;
  uint64_t failed = phase.failed + traced_phase.failed;
  Metric("ops.attempted", static_cast<double>(attempted), "count");
  Metric("ops.failed", static_cast<double>(failed), "count");
  Metric("check.failures", static_cast<double>(checker.failures()), "count");
  fflush(stdout);
  w.reset();
  fs::remove_all(work, ec);
  return checker.failures() == 0 && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace nsf

int main(int argc, char** argv) { return nsf::bench::Main(argc, argv); }

// Embedder-style engine API — the single way code runs in this repo.
//
// Modeled on the Engine/Store/Module/Instance shape real Wasm engines expose
// (V8, SpiderMonkey — the toolchains the paper measures):
//
//   Engine   — process-wide and THREAD-SAFE: owns a content-addressed,
//              TWO-LEVEL CodeCache keyed by (module hash via the encoder,
//              CodegenOptions fingerprint) and a TieringPolicy wrapping the
//              PGO TierManager. Compilation is compile-once-run-many even
//              under concurrency AND across processes: the in-memory tier is
//              sharded into mutex-guarded shards (selected by module-hash
//              prefix) with a per-entry "compiling" latch, and behind it sits
//              an optional on-disk tier (src/engine/disk_cache.h) of
//              serialized CompiledArtifact files — a warm cache directory
//              makes a fresh process skip every backend compile. Warm hits
//              are wait-free (an epoch-protected index, no lock). PGO
//              tier-up has one production path: the background tierer
//              (src/engine/tierer.h) recompiles hot modules off the serve
//              path and hot-swaps them in.
//   Session  — one BrowsixKernel + VFS staging area, single-threaded by
//              design: each worker thread owns its own Session. Many modules
//              can be instantiated into one session; they share the
//              filesystem. Reset() drops all staged state.
//   Instance — a CompiledModule bound into a Session with argv/entry/fuel,
//              reusable across repeated runs (each Run() gets a fresh
//              machine and process; the compiled code is shared).
//
// Typical embedding:
//
//   engine::Engine eng;                       // share freely across threads
//   auto code = eng.Compile(BuildModule(), CodegenOptions::ChromeV8());
//   engine::Session session(&eng);            // one per thread
//   session.fs().WriteFile("/data/input.txt", "...");
//   auto inst = session.Instantiate(code, {.argv = {"prog"}}, &err);
//   engine::RunOutcome out = inst->Run();   // re-running never recompiles
//
// Set NSF_CACHE_DIR (or EngineConfig::cache_dir) to persist compiled
// artifacts across processes; NSF_CACHE_MAX_BYTES bounds the directory with
// LRU eviction.
//
// For parallel batch execution over a pool of Sessions, see
// src/engine/executor.h (ExecutorPool / Session::RunBatch).
#ifndef SRC_ENGINE_ENGINE_H_
#define SRC_ENGINE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/codegen/artifact.h"
#include "src/codegen/codegen.h"
#include "src/engine/disk_cache.h"
#include "src/engine/ebr.h"
#include "src/engine/workload.h"
#include "src/kernel/kernel.h"
#include "src/machine/decode.h"
#include "src/machine/machine.h"
#include "src/profile/sampled.h"
#include "src/profile/tier.h"
#include "src/wasm/module.h"

namespace nsf {
namespace engine {

class BackgroundTierer;

// A compiled (module, options) pair, shared by every caller that requests
// the same content. Immutable once published by the Engine. The payload is a
// self-contained CompiledArtifact (src/codegen/artifact.h) — exactly what
// the disk tier serializes — plus the engine-level outcome envelope.
struct CompiledModule {
  bool ok = false;
  std::string error;      // "module invalid: ..." / "compile failed: ..."
  bool from_disk = false; // deserialized from the disk tier, not compiled
  CompiledArtifact artifact;
  // Predecoded simulator stream (src/machine/decode.h) over artifact's
  // program. Built exactly once per code-cache entry — after a backend
  // compile AND after a disk-tier artifact load — so every Instance and every
  // run shares it; references `artifact`, which this struct owns.
  std::shared_ptr<const DecodedProgram> decoded;

  // Builds `decoded` from the (linked) compiled program. Called by the
  // Engine at publish time; idempotent.
  void BuildDecoded() {
    if (decoded == nullptr && ok) {
      decoded = std::make_shared<DecodedProgram>(Predecode(artifact.program()));
    }
  }
  const DecodedProgram* decoded_program() const { return decoded.get(); }

  const Module& module() const { return artifact.module; }
  uint64_t module_hash() const { return artifact.module_hash; }
  uint64_t fingerprint() const { return artifact.options_fingerprint; }
  const std::string& profile_name() const { return artifact.profile_name; }
  CompileTier tier() const { return artifact.tier; }
  const CompileResult& compiled() const { return artifact.compiled; }
  const MProgram& program() const { return artifact.compiled.program; }
  const CompileStats& stats() const { return artifact.compiled.stats; }
};

using CompiledModuleRef = std::shared_ptr<const CompiledModule>;

// Content-addressed, two-level cache of successful compiles, safe for
// concurrent use.
//
// Level 1 (memory) is split into a WAIT-FREE hit path and a mutex-guarded
// slow path:
//
//   Hit path: each shard publishes its completed entries into an
//   open-addressed hash index of immutable nodes. A warm hit pins an epoch
//   (src/engine/ebr.h), acquire-loads the table and the node, copies the
//   CompiledModuleRef, and unpins — no mutex, no CAS, no retry loop: a
//   saturated 16-thread warm workload performs zero lock acquisitions
//   (EngineStats::lock_waits stays 0). Writers replace or grow the index
//   under the shard mutex and RETIRE displaced nodes/tables through the EBR
//   domain, which frees them only after every pinned reader has moved on.
//
//   Slow path (misses, in-flight compiles, publishes): the key space is
//   split across `shard_count` independently-locked shards selected by the
//   top bits of the module hash, so unrelated compiles never contend on one
//   mutex. Each in-flight compile parks a latch in its entry: the first
//   requester of a key becomes the leader; every concurrent requester of the
//   same key blocks on the latch and shares the leader's result (exactly one
//   backend invocation per key).
//
// Level 2 (disk, optional): before compiling, the leader probes the disk
// tier for a serialized artifact of the key and — on an accepted load —
// publishes it exactly like a compile result. After a successful backend
// compile the leader persists the artifact. Corrupt/version-mismatched disk
// entries are rejected and recompiled; they can never wedge or crash a
// caller.
// Where one Compile() call's result came from — per-call truth for the
// caller that wants to attribute latency to the machinery that produced it
// (the serving loop tags requests stalled by cold compiles and disk loads
// with exactly this). Diffing EngineStats cannot provide it: under
// concurrency another thread's compile lands between any two snapshots.
struct CompileInfo {
  bool hit = false;          // served from either cache tier (incl. joining
                             // another thread's successful in-flight compile)
  bool joined = false;       // blocked on another thread's in-flight compile
  bool compiled = false;     // this call ran the backend compiler
  bool disk_loaded = false;  // this call deserialized the artifact from disk
};

class CodeCache {
 public:
  explicit CodeCache(size_t shard_count = kDefaultShards, std::string disk_dir = "",
                     uint64_t disk_max_bytes = 0);
  ~CodeCache();

  // Returns the cached module for (module_hash, fingerprint) or invokes
  // `compile` to produce it. Failed compiles are delivered to every waiter
  // but not retained, so a later request retries. `*info` reports where the
  // result came from: info->hit — served from the cache (a completed memory
  // entry, or the leader loading the key's artifact from the disk tier);
  // info->joined — blocked on another thread's in-flight compile;
  // info->compiled / info->disk_loaded — this call was the leader and paid
  // the backend compile / the disk deserialization itself.
  CompiledModuleRef GetOrCompile(uint64_t module_hash, uint64_t fingerprint,
                                 const std::function<CompiledModuleRef()>& compile,
                                 CompileInfo* info);

  // Read-only probe of the MEMORY tier (no latch or disk interaction): the
  // completed entry or null.
  CompiledModuleRef Lookup(uint64_t module_hash, uint64_t fingerprint) const;

  // Hot code swap (continuous tiering): replaces the published code for
  // (module_hash, fingerprint) with `code` — the background tierer publishes
  // PGO'd code under the BASE options key so every future warm lookup
  // transparently serves the new tier. The safe point is one release-store
  // into the wait-free hit index: readers that already pinned the old node
  // finish on the old entry (their CompiledModuleRef keeps it alive however
  // long the run takes), the displaced index node is retired through the EBR
  // domain, and nothing is ever freed in place. An in-flight compile latch
  // for the key, if any, is left untouched.
  void Republish(uint64_t module_hash, uint64_t fingerprint, const CompiledModuleRef& code);

  size_t size() const;
  void Clear();  // memory tier only; the disk tier persists by design
  size_t shard_count() const { return shards_.size(); }

  DiskCodeCache& disk() { return disk_; }
  const DiskCodeCache& disk() const { return disk_; }

  // Contention telemetry: how often a shard lock was found held, and the
  // total wall time spent blocked on shard locks.
  uint64_t lock_waits() const { return lock_waits_.load(std::memory_order_relaxed); }
  double lock_wait_seconds() const {
    return static_cast<double>(lock_wait_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }
  // Disk artifacts that decoded cleanly (checksum passed) but failed the
  // semantic MProgram/DecodedProgram verifiers — deleted and recompiled,
  // exactly like corrupt files.
  uint64_t verify_rejects() const { return verify_rejects_.load(std::memory_order_relaxed); }
  void ResetTelemetry() {
    lock_waits_.store(0, std::memory_order_relaxed);
    lock_wait_nanos_.store(0, std::memory_order_relaxed);
    verify_rejects_.store(0, std::memory_order_relaxed);
    disk_.ResetStats();
  }

  static constexpr size_t kDefaultShards = 16;  // rounded up to a power of two

 private:
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    CompiledModuleRef result;
  };
  struct Entry {
    CompiledModuleRef code;        // published once a compile succeeded
    std::shared_ptr<Latch> latch;  // present while a compile is in flight
  };

  // One immutable published entry in the wait-free hit index. Readers copy
  // `code` while epoch-pinned (the node keeps the control block alive);
  // displaced nodes are retired through the EBR domain, never deleted in
  // place.
  struct IndexNode {
    uint64_t module_hash;
    uint64_t fingerprint;
    CompiledModuleRef code;
  };
  // Open-addressed, power-of-two table of release-published node pointers.
  // Append-mostly: slots go null -> node (insert) or node -> node (same-key
  // republish); removal only happens wholesale (Clear retires the table).
  // Writers keep the load factor <= 1/2, so reader probes always terminate
  // at a null slot. The table owns its slot array, never the nodes.
  struct IndexTable {
    explicit IndexTable(size_t cap)
        : capacity(cap), slots(new std::atomic<IndexNode*>[cap]()) {}
    size_t capacity;
    std::unique_ptr<std::atomic<IndexNode*>[]> slots;
  };

  struct Shard {
    mutable std::mutex mu;
    std::map<std::pair<uint64_t, uint64_t>, Entry> entries;
    // The wait-free hit index: mutated only under `mu`, read by anyone under
    // an epoch guard. Null until the first publish.
    std::atomic<IndexTable*> index{nullptr};
    size_t index_live = 0;  // nodes in the table (writer-side bookkeeping)
  };

  Shard& ShardFor(uint64_t module_hash) const {
    // Prefix (top bits) of the content hash selects the shard; shard count is
    // a power of two so the mask is exact.
    return *shards_[(module_hash >> 48) & (shards_.size() - 1)];
  }
  // Locks `shard.mu`, accounting blocked time into the contention counters.
  std::unique_lock<std::mutex> LockShard(const Shard& shard) const;
  // Publishes `result` for `key` under the shard lock and releases `latch`
  // waiters. Successful results are retained; failures drop the entry.
  void Publish(Shard& shard, const std::pair<uint64_t, uint64_t>& key,
               const std::shared_ptr<Latch>& latch, const CompiledModuleRef& result);

  // Wait-free probe of `shard`'s hit index (epoch-pinned; no locks).
  CompiledModuleRef IndexLookup(const Shard& shard, uint64_t module_hash,
                                uint64_t fingerprint) const;
  // Inserts/replaces `key -> code` in the index. Caller holds `shard.mu`.
  // Grows the table at load factor 1/2; displaced nodes and replaced tables
  // are retired through the EBR domain.
  void IndexInsert(Shard& shard, uint64_t module_hash, uint64_t fingerprint,
                   const CompiledModuleRef& code);
  // Places `node` into `table` (single-writer, pre-publish or under `mu`).
  static void IndexPlace(IndexTable* table, IndexNode* node);

  std::vector<std::unique_ptr<Shard>> shards_;
  DiskCodeCache disk_;
  mutable std::atomic<uint64_t> lock_waits_{0};
  mutable std::atomic<uint64_t> lock_wait_nanos_{0};
  std::atomic<uint64_t> verify_rejects_{0};

  static constexpr size_t kIndexInitialCapacity = 16;
};

// Engine-owned tier-up policy: wraps the PGO TierManager so profiling and
// profile-guided recompilation are an engine concern, not a caller concern.
//
// Thread-safe: the profile cache and run history sit behind one mutex, and
// the interpreter warm-up runs outside it. Its callers are the background
// tierer thread and serial offline benches, so concurrent warm-ups of one
// name are not deduplicated: racers each profile, the first Insert wins, and
// every caller tiers with the one cached profile.
class TieringPolicy {
 public:
  explicit TieringPolicy(TierConfig config = TierConfig()) : manager_(config) {}

  // Profile-guided options for `spec` over `base`. Once a workload name's
  // profile is cached no warm-up runs again. On warm-up failure returns
  // `base` unchanged and sets *error (failures are not cached).
  CodegenOptions TierUp(const WorkloadSpec& spec, const CodegenOptions& base,
                        std::string* error);

  // True when `name`'s profile is already cached (no warm-up would run).
  bool HasProfile(const std::string& name) const;

  // Publishes an externally obtained profile (disk-persisted from a previous
  // process, or reconstructed from sampling) under `name`, so subsequent
  // TierUp calls skip the interpreter warm-up. First writer wins; returns
  // the cached node-stable profile either way. Thread-safe.
  const Profile* InsertProfile(const std::string& name, Profile profile);

  // --- Run-history table (observed per-key simulated seconds) ---
  // Every batch run records its workload's simulated seconds here;
  // ExecutorPool's LPT schedule prefers these observed means over the
  // warm-up instruction counts, which misestimate whenever interpreted and
  // compiled instruction mixes diverge. Thread-safe.
  void RecordRun(const std::string& name, double sim_seconds);

  // Runs recorded since the last successful SaveHistory: the cheap "is there
  // anything new to persist" check behind Engine::FlushRunHistory.
  uint64_t HistoryDirty() const { return history_dirty_.load(std::memory_order_relaxed); }

  // Persistence (NSF_CACHE_DIR/run_history via the Engine): a fresh process
  // starts with the previous process's observed means, so its FIRST LPT
  // batch already schedules by history instead of falling back to warm-up
  // estimates. Text lines "<runs> <total_sim_seconds> <name>"; unparsable
  // lines are skipped, a missing file is a clean empty table. Load MERGES
  // into the current table (summing runs/seconds per key); Save writes
  // atomically (tmp + rename) and reports success. Thread-safe.
  bool LoadHistory(const std::string& path);
  bool SaveHistory(const std::string& path) const;
  size_t HistorySize() const;
  // Mean observed simulated seconds for `name`; 0 when never recorded.
  double ObservedSeconds(const std::string& name) const;
  uint64_t ObservedRuns(const std::string& name) const;
  // The LPT work estimate, in (approximate) seconds: the observed mean when
  // the run history has this key, else the warm-up profile's instruction
  // count at a nominal 3.5e9 instructions/second (the cost model's clock —
  // only the ORDER matters, so a rough bridge between the two unit systems
  // is fine), else 0 — an all-zero batch keeps queue order under the stable
  // sort, which is the documented FIFO fallback. `observed_runs` (optional)
  // receives the key's run-history depth under the same lock acquisition,
  // so schedulers don't pay a second lock round-trip per request.
  double EstimateSeconds(const std::string& name, uint64_t* observed_runs = nullptr) const;

  // Not synchronized — only touch the raw manager from one thread.
  TierManager& manager() { return manager_; }
  uint64_t warmup_runs() const { return warmup_runs_.load(std::memory_order_relaxed); }
  void ResetWarmupCount() { warmup_runs_.store(0, std::memory_order_relaxed); }

 private:
  struct RunHistory {
    uint64_t runs = 0;
    double total_sim_seconds = 0;
  };

  mutable std::mutex mu_;  // guards manager_'s cache and history_
  TierManager manager_;
  std::map<std::string, RunHistory> history_;
  std::atomic<uint64_t> warmup_runs_{0};  // interpreter warm-ups actually executed
  // Runs recorded since the last successful save; mutable because SaveHistory
  // (const) clears it once the table is durably on disk.
  mutable std::atomic<uint64_t> history_dirty_{0};
};

// Reads NSF_CACHE_DIR: the disk tier's directory ("" = disabled).
std::string DefaultCacheDir();
// Reads NSF_CACHE_MAX_BYTES; defaults to 256 MiB. 0 = unbounded.
uint64_t DefaultDiskCacheMaxBytes();

struct EngineConfig {
  bool cache_enabled = true;   // table2-style compile-time benches disable it
  size_t cache_shards = CodeCache::kDefaultShards;
  // Disk tier: empty disables persistence. Defaults honor the NSF_CACHE_DIR /
  // NSF_CACHE_MAX_BYTES environment so every bench binary persists compiles
  // when the caller exports a cache directory.
  std::string cache_dir = DefaultCacheDir();
  uint64_t disk_cache_max_bytes = DefaultDiskCacheMaxBytes();
  TierConfig tiering;
  // --- Continuous tiering ---
  // sample_period N != 0 arms the predecoded interpreter's sampled profiling:
  // every Nth back-edge/call records into the module's shared SampledProfile
  // sink (default 0 = hooks disabled, zero shared-state traffic, and
  // PerfCounters identical either way). background_tiering additionally
  // starts an engine-owned recompilation thread that watches the sample
  // totals of every workload compiled through CompileWorkload and, once a
  // module crosses tier_hot_samples, runs the PGO pipeline off the serve
  // path and hot-swaps the result into the code cache under the base key.
  bool background_tiering = false;
  uint32_t sample_period = 0;
  uint64_t tier_hot_samples = 64;
  double tier_scan_period_seconds = 0.005;
};

// Aggregate counters surfaced into every BENCH_*.json (engine_stats block).
// Snapshot of the engine's internal atomics; under concurrency the totals
// obey hits + misses == Compile() calls and compiles + disk_hits == unique
// successful keys (joiners of an in-flight compile count as hits, tracked
// separately in compile_joins).
struct EngineStats {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;         // includes compile failures
  uint64_t compiles = 0;             // actual backend invocations
  uint64_t compile_joins = 0;        // waited on another thread's compile
  uint64_t tier_warmups = 0;         // interpreter profiling runs
  uint64_t lock_waits = 0;           // shard-lock acquisitions that blocked
  double lock_wait_seconds = 0;      // wall time blocked on shard locks
  double compile_seconds = 0;        // wall clock spent compiling
  double compile_seconds_saved = 0;  // sum of cached-entry compile times on hits
  // Disk tier (zero when no cache_dir is configured):
  uint64_t disk_hits = 0;            // artifacts deserialized from disk
  uint64_t disk_misses = 0;          // leader probes that found no usable file
  uint64_t disk_evictions = 0;       // files removed by the LRU size bound
  uint64_t disk_load_failures = 0;   // corrupt/mismatched files rejected
  uint64_t disk_stores = 0;          // artifacts persisted
  uint64_t disk_lease_waits = 0;     // cold compiles that waited on another process's lease
  uint64_t disk_lease_takeovers = 0;  // stale lease files forcibly reclaimed
  double deserialize_seconds = 0;    // wall time decoding disk artifacts
  double serialize_seconds = 0;      // wall time encoding + writing artifacts
  // Disk artifacts that passed the codec's checksum but failed semantic
  // verification (src/codegen/verify.h) — deleted + recompiled, never run.
  uint64_t verify_rejects = 0;
  // Continuous tiering (zero unless EngineConfig::background_tiering):
  uint64_t tier_swaps = 0;             // hot swaps published into the code cache
  uint64_t background_recompiles = 0;  // PGO compiles run by the tierer thread
};

class Session;

// Thread-safe: Compile/CompileWorkload/TierUp/Stats may be called from any
// number of threads sharing one Engine.
class Engine {
 public:
  // With a cache_dir configured, construction loads the persisted run-history
  // table (cache_dir/run_history) and destruction saves it — the tiering
  // policy's observed-seconds estimates survive process restarts alongside
  // the compiled artifacts themselves.
  explicit Engine(EngineConfig config = EngineConfig());
  ~Engine();

  // Saves the run-history table to cache_dir/run_history now (also done by
  // the destructor). No-op without a cache_dir; true on a successful write.
  bool SaveRunHistory() const;
  // Persists the run-history table only if runs were recorded since the last
  // save — the crash-safety valve for long-lived processes: ~Engine is the
  // only other save point, and a killed process loses everything it observed.
  // ExecutorPool::Run flushes after every batch and the serving loop flushes
  // on a period, so at most one batch / one flush window of history is ever
  // at risk. Cheap when clean or when no cache_dir is configured (one
  // relaxed atomic load). True when a write happened and succeeded.
  bool FlushRunHistory() const;
  // The run_history file path for this engine's cache_dir ("" when disabled).
  std::string RunHistoryPath() const;

  // Compile-or-fetch. On a miss the CompiledModule retains a copy of the
  // module for import binding and export lookup; a hit copies nothing.
  // Never returns null — check (*result).ok. Failed compiles are not cached.
  // *was_hit (optional) reports whether this call was served from the cache
  // (either tier, including joining another thread's in-flight compile) —
  // per-call truth, unlike diffing Stats() which races under concurrency.
  CompiledModuleRef Compile(const Module& module, const CodegenOptions& options,
                            bool* was_hit = nullptr);

  // As above, with full per-call attribution: whether THIS call hit, joined,
  // ran the backend compiler, or deserialized the artifact from disk.
  CompiledModuleRef Compile(const Module& module, const CodegenOptions& options,
                            CompileInfo* info);

  // Builds spec.build() and compiles it.
  CompiledModuleRef CompileWorkload(const WorkloadSpec& spec, const CodegenOptions& options,
                                    bool* was_hit = nullptr);
  CompiledModuleRef CompileWorkload(const WorkloadSpec& spec, const CodegenOptions& options,
                                    CompileInfo* info);

  // Profile-guided options for `spec` via the engine's TieringPolicy. With a
  // disk cache this first tries the profile persisted by a previous process
  // (skipping the interpreter warm-up entirely) and persists any fresh
  // warm-up's profile for the next process. Production calls this from the
  // background tierer thread only; nothing on the serve path blocks on it.
  CodegenOptions TierUp(const WorkloadSpec& spec, const CodegenOptions& base,
                        std::string* error);

  // The shared sampling sink for `code`'s module, sized to its function
  // count (created on first request). Null when sampling is disabled
  // (config().sample_period == 0) or `code` is not runnable.
  std::shared_ptr<SampledProfile> SamplerFor(const CompiledModuleRef& code);

  // Registers a base-tier compile with the background tierer: once the
  // module's sample total crosses tier_hot_samples the tierer recompiles it
  // with PGO and hot-swaps the result under (module_hash, fingerprint).
  // No-op unless background tiering + sampling are both enabled; deduped by
  // key. CompileWorkload calls this automatically for un-profiled options.
  void WatchForTierUp(const CompiledModuleRef& code, const WorkloadSpec& spec,
                      const CodegenOptions& base);

  // Blocks until the background tierer has swapped every watch whose sample
  // count already crossed the threshold (tests/benches; no-op otherwise).
  void DrainTierer();

  EngineStats Stats() const;
  void ResetStats();
  size_t CacheSize() const { return cache_.size(); }
  void ClearCache() { cache_.Clear(); }

  const EngineConfig& config() const { return config_; }
  TieringPolicy& tiering() { return tiering_; }
  const TieringPolicy& tiering() const { return tiering_; }
  CodeCache& cache() { return cache_; }

 private:
  friend class BackgroundTierer;

  // One compile, bypassing the cache: validation + backend + stats.
  CompiledModuleRef CompileUncached(const Module& module, uint64_t module_hash,
                                    const CodegenOptions& options, uint64_t fingerprint);
  static void AddSeconds(std::atomic<uint64_t>* nanos, double seconds) {
    nanos->fetch_add(static_cast<uint64_t>(seconds * 1e9), std::memory_order_relaxed);
  }

  EngineConfig config_;
  TieringPolicy tiering_;
  CodeCache cache_;

  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> compiles_{0};
  std::atomic<uint64_t> compile_joins_{0};
  std::atomic<uint64_t> compile_nanos_{0};
  std::atomic<uint64_t> saved_nanos_{0};

  // Continuous tiering. samplers_ maps module_hash -> shared sink; the
  // tierer thread is constructed last / destroyed first so it can never
  // outlive the cache or tiering policy it feeds.
  mutable std::mutex sampler_mu_;
  std::map<uint64_t, std::shared_ptr<SampledProfile>> samplers_;
  std::atomic<uint64_t> tier_swaps_{0};
  std::atomic<uint64_t> background_recompiles_{0};
  std::unique_ptr<BackgroundTierer> tierer_;
};

// Per-instance execution parameters.
struct InstanceOptions {
  std::vector<std::string> argv = {"prog"};
  std::string entry = "main";
  uint64_t fuel = 0;  // 0 = machine default cap
  // Interpreter core. kPredecoded is the production path; kLegacy selects
  // the reference switch interpreter (differential tests, perf baselines).
  SimDispatch dispatch = SimDispatch::kPredecoded;
};

// One run's observable result (the harness layers validation and statistics
// on top of this).
struct RunOutcome {
  bool ok = false;
  std::string error;
  uint64_t exit_code = 0;
  PerfCounters counters;
  double seconds = 0;          // simulated wall clock (cycles / clock)
  double browsix_seconds = 0;  // time charged to the Browsix kernel
  uint64_t syscalls = 0;
  std::string stdout_text;
};

class Instance;
struct RunRequest;
struct BatchReport;

// One Browsix kernel + VFS. Instances created from the same Session share
// the filesystem; Reset() replaces the kernel so no staged file survives.
// A Session is deliberately NOT thread-safe: it is the unit of per-worker
// state. Give each thread its own Session (ExecutorPool does exactly that);
// the Engine behind them is safely shared.
class Session {
 public:
  explicit Session(Engine* engine);

  BrowsixKernel& kernel() { return *kernel_; }
  MemFs& fs();

  // Drops every staged file and all kernel accounting. References previously
  // returned by kernel()/fs() are invalidated; live Instances pick up the
  // fresh kernel on their next Run(). The machine-buffer pool deliberately
  // SURVIVES Reset: recycled buffers are scrubbed back to zero by the
  // machine that used them, so reuse is invisible to isolation — only the
  // 8 MB-per-run allocation cost disappears.
  void Reset();

  // Pool of simulated stack/heap/table buffers recycled across this
  // session's runs (SimMachine scrubs dirtied ranges on release).
  SimBufferPool& buffer_pool() { return buffer_pool_; }

  // Binds compiled code into this session. Returns null and sets *error when
  // the compile failed or the entry export is missing. The Instance holds a
  // reference to `code` and a pointer to this Session (which must outlive it).
  std::unique_ptr<Instance> Instantiate(CompiledModuleRef code,
                                        InstanceOptions options = InstanceOptions(),
                                        std::string* error = nullptr);

  // Executes `requests` on THIS session, serially, with Reset() isolation
  // between runs, and aggregates per-run counters into a BatchReport — the
  // single-worker degenerate case of ExecutorPool::Run (src/engine/executor.h).
  BatchReport RunBatch(const std::vector<RunRequest>& requests);

  Engine* engine() { return engine_; }

 private:
  Engine* engine_;
  std::unique_ptr<BrowsixKernel> kernel_;
  SimBufferPool buffer_pool_;
};

// Compiled code bound to a session with fixed argv/entry/fuel. Run() executes
// the entry on a fresh machine and process each time — repeated runs share
// the compiled program (never recompiling) and the session's filesystem.
class Instance {
 public:
  // Executes the entry function once. The measurement window covers
  // execution only, mirroring the paper ("after WebAssembly JIT compilation
  // concludes"): compilation happened at Engine::Compile time.
  RunOutcome Run();

  // Executes an arbitrary exported function with integer stack args (the
  // compiled-code ABI), on a fresh machine and process like Run(). exit_code
  // carries the function's return register. Used by tests and micro-benches.
  RunOutcome RunExport(const std::string& name, const std::vector<uint64_t>& args);

  const CompiledModule& code() const { return *code_; }
  const InstanceOptions& options() const { return options_; }
  Session* session() { return session_; }
  uint32_t entry_index() const { return entry_index_; }
  uint64_t runs() const { return runs_; }

 private:
  friend class Session;
  Instance(Session* session, CompiledModuleRef code, InstanceOptions options,
           uint32_t entry_index)
      : session_(session),
        code_(std::move(code)),
        options_(std::move(options)),
        entry_index_(entry_index) {}

  RunOutcome RunAtIndex(uint32_t func_index, const std::vector<uint64_t>& args);

  Session* session_;
  CompiledModuleRef code_;
  InstanceOptions options_;
  uint32_t entry_index_;
  uint64_t runs_ = 0;
  // The module's shared sampling sink, resolved once at Instantiate time
  // (null when EngineConfig::sample_period == 0). Each run's machine buffers
  // samples locally and folds them here on teardown.
  std::shared_ptr<SampledProfile> sampler_;
};

}  // namespace engine
}  // namespace nsf

#endif  // SRC_ENGINE_ENGINE_H_

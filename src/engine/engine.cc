#include "src/engine/engine.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <utility>

#include "src/codegen/verify.h"
#include "src/engine/tierer.h"
#include "src/machine/verify_decoded.h"
#include "src/runtime/runtime.h"
#include "src/support/str.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/wasm/encoder.h"
#include "src/wasm/validator.h"

namespace nsf {
namespace engine {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

// Instrumentation handles, resolved once. Time histograms are nanoseconds
// (`_ns` convention, src/telemetry/metrics.h).
telemetry::Histogram& Hist(const char* name) {
  return *telemetry::MetricsRegistry::Global().GetHistogram(name);
}
telemetry::Counter& Count(const char* name) {
  return *telemetry::MetricsRegistry::Global().GetCounter(name);
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
}

}  // namespace

std::string DefaultCacheDir() {
  const char* dir = std::getenv("NSF_CACHE_DIR");
  return dir != nullptr ? std::string(dir) : std::string();
}

uint64_t DefaultDiskCacheMaxBytes() {
  const char* v = std::getenv("NSF_CACHE_MAX_BYTES");
  if (v != nullptr) {
    return static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
  }
  return 256ull << 20;  // 256 MiB default budget for the disk tier
}

namespace {

// Probe-start mix for the hit index. The shard was already selected by the
// hash's top bits, so the probe position must come from a full remix or
// same-shard keys would cluster.
size_t IndexHash(uint64_t module_hash, uint64_t fingerprint) {
  uint64_t x = module_hash ^ (fingerprint + 0x9e3779b97f4a7c15ull);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return static_cast<size_t>(x);
}

}  // namespace

// --- CodeCache ---

CodeCache::CodeCache(size_t shard_count, std::string disk_dir, uint64_t disk_max_bytes)
    : disk_(std::move(disk_dir), disk_max_bytes) {
  size_t n = RoundUpPow2(shard_count == 0 ? 1 : shard_count);
  shards_.reserve(n);
  for (size_t i = 0; i < n; i++) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

CodeCache::~CodeCache() {
  // No readers can be probing a cache being destroyed; the live tables and
  // nodes are freed directly. Anything already retired belongs to the EBR
  // domain and is reclaimed on its own schedule.
  for (auto& shard : shards_) {
    IndexTable* t = shard->index.load(std::memory_order_relaxed);
    if (t != nullptr) {
      for (size_t i = 0; i < t->capacity; i++) {
        delete t->slots[i].load(std::memory_order_relaxed);
      }
      delete t;
    }
  }
}

CompiledModuleRef CodeCache::IndexLookup(const Shard& shard, uint64_t module_hash,
                                         uint64_t fingerprint) const {
  // The entire warm hit: pin, acquire-load table and node, copy the ref,
  // unpin. Wait-free — no mutex, no CAS, no retry loop. The epoch pin keeps
  // every node and table reachable here alive until the guard drops; the
  // shared_ptr copy keeps the module alive after it.
  ebr::EbrGuard guard(ebr::EbrDomain::Global());
  const IndexTable* t = shard.index.load(std::memory_order_acquire);
  if (t == nullptr) {
    return nullptr;
  }
  const size_t mask = t->capacity - 1;
  size_t i = IndexHash(module_hash, fingerprint) & mask;
  while (true) {
    IndexNode* n = t->slots[i].load(std::memory_order_acquire);
    if (n == nullptr) {
      return nullptr;  // load factor <= 1/2 guarantees a null terminator
    }
    if (n->module_hash == module_hash && n->fingerprint == fingerprint) {
      return n->code;
    }
    i = (i + 1) & mask;
  }
}

void CodeCache::IndexPlace(IndexTable* table, IndexNode* node) {
  const size_t mask = table->capacity - 1;
  size_t i = IndexHash(node->module_hash, node->fingerprint) & mask;
  while (table->slots[i].load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & mask;
  }
  // Relaxed is enough pre-publish (a fresh table) — the release store of the
  // table pointer publishes the contents. Release costs nothing extra here
  // and also covers the in-place insert path.
  table->slots[i].store(node, std::memory_order_release);
}

void CodeCache::IndexInsert(Shard& shard, uint64_t module_hash, uint64_t fingerprint,
                            const CompiledModuleRef& code) {
  IndexTable* t = shard.index.load(std::memory_order_relaxed);
  if (t == nullptr || (shard.index_live + 1) * 2 > t->capacity) {
    // Grow (or first allocate) at load factor 1/2: build the successor table
    // off to the side, carry the live nodes over, publish with a release
    // store, and retire the old table — a reader still probing it finishes
    // safely under its epoch pin.
    size_t cap = t == nullptr ? kIndexInitialCapacity : t->capacity * 2;
    IndexTable* bigger = new IndexTable(cap);
    if (t != nullptr) {
      for (size_t i = 0; i < t->capacity; i++) {
        IndexNode* n = t->slots[i].load(std::memory_order_relaxed);
        if (n != nullptr) {
          IndexPlace(bigger, n);
        }
      }
    }
    shard.index.store(bigger, std::memory_order_release);
    if (t != nullptr) {
      ebr::EbrDomain::Global().Retire(t);
    }
    t = bigger;
  }
  const size_t mask = t->capacity - 1;
  size_t i = IndexHash(module_hash, fingerprint) & mask;
  while (true) {
    IndexNode* n = t->slots[i].load(std::memory_order_relaxed);
    if (n == nullptr) {
      t->slots[i].store(new IndexNode{module_hash, fingerprint, code},
                        std::memory_order_release);
      shard.index_live++;
      return;
    }
    if (n->module_hash == module_hash && n->fingerprint == fingerprint) {
      // Same-key republish (e.g. a tier-up recompile): point the slot at the
      // new immutable node and retire the displaced one — a reader that
      // already acquired it keeps a valid snapshot until its guard drops.
      t->slots[i].store(new IndexNode{module_hash, fingerprint, code},
                        std::memory_order_release);
      ebr::EbrDomain::Global().Retire(n);
      return;
    }
    i = (i + 1) & mask;
  }
}

std::unique_lock<std::mutex> CodeCache::LockShard(const Shard& shard) const {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    auto t0 = std::chrono::steady_clock::now();
    lock.lock();
    uint64_t waited_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - t0)
            .count());
    lock_waits_.fetch_add(1, std::memory_order_relaxed);
    lock_wait_nanos_.fetch_add(waited_ns, std::memory_order_relaxed);
    static telemetry::Histogram& wait_ns = Hist("engine.cache.lock_wait_ns");
    wait_ns.Record(waited_ns);
  }
  return lock;
}

CompiledModuleRef CodeCache::Lookup(uint64_t module_hash, uint64_t fingerprint) const {
  // The index holds exactly the completed entries, so the wait-free probe
  // answers the question without the lock.
  return IndexLookup(ShardFor(module_hash), module_hash, fingerprint);
}

void CodeCache::Republish(uint64_t module_hash, uint64_t fingerprint,
                          const CompiledModuleRef& code) {
  Shard& shard = ShardFor(module_hash);
  std::unique_lock<std::mutex> lock = LockShard(shard);
  // Preserve any in-flight latch: a concurrent leader for this key will
  // overwrite entry.code when it publishes, which is the normal last-writer
  // race for a republish — both values are correct code for the key.
  Entry& entry = shard.entries[{module_hash, fingerprint}];
  entry.code = code;
  // The swap point readers actually observe: the same-key path of
  // IndexInsert points the slot at a fresh node and EBR-retires the old one.
  IndexInsert(shard, module_hash, fingerprint, code);
}

void CodeCache::Publish(Shard& shard, const std::pair<uint64_t, uint64_t>& key,
                        const std::shared_ptr<Latch>& latch, const CompiledModuleRef& result) {
  {
    std::unique_lock<std::mutex> lock = LockShard(shard);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      if (result != nullptr && result->ok) {
        it->second.code = result;
        it->second.latch = nullptr;
        // Publish into the wait-free hit index under the same lock (the
        // shard mutex is the index's single-writer exclusion).
        IndexInsert(shard, key.first, key.second, result);
      } else {
        // Failed compiles are not cached: drop the placeholder entry entirely.
        shard.entries.erase(it);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lk(latch->mu);
    latch->result = result;
    latch->ready = true;
  }
  latch->cv.notify_all();
}

CompiledModuleRef CodeCache::GetOrCompile(uint64_t module_hash, uint64_t fingerprint,
                                          const std::function<CompiledModuleRef()>& compile,
                                          CompileInfo* info) {
  *info = CompileInfo();
  Shard& shard = ShardFor(module_hash);
  std::pair<uint64_t, uint64_t> key{module_hash, fingerprint};

  // The wait-free warm-hit path: an epoch-pinned index probe, no mutex.
  // Under saturation this is the only code concurrent warm callers run —
  // lock_waits stays 0 no matter how many threads hammer one key.
  const auto t0 = std::chrono::steady_clock::now();
  CompiledModuleRef hit = IndexLookup(shard, module_hash, fingerprint);
  if (hit != nullptr) {
    info->hit = true;
    static telemetry::Counter& mem_hits = Count("engine.cache.mem_hit");
    mem_hits.Add();
    static telemetry::Histogram& hit_ns = Hist("engine.cache.hit_ns");
    hit_ns.Record(ElapsedNs(t0));
    return hit;
  }

  std::shared_ptr<Latch> latch;
  bool leader = false;
  {
    const auto lock_t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock = LockShard(shard);
    Entry& entry = shard.entries[key];
    if (entry.code != nullptr) {
      // Another thread published this key between the index probe above and
      // this lock: serve its entry rather than compiling it again.
      info->hit = true;
      static telemetry::Counter& mem_hits = Count("engine.cache.mem_hit");
      mem_hits.Add();
      static telemetry::Histogram& hit_ns = Hist("engine.cache.hit_ns");
      hit_ns.Record(ElapsedNs(lock_t0));
      return entry.code;
    }
    static telemetry::Counter& mem_misses = Count("engine.cache.mem_miss");
    mem_misses.Add();
    if (entry.latch != nullptr) {
      latch = entry.latch;  // someone else is compiling this key right now
    } else {
      entry.latch = latch = std::make_shared<Latch>();  // we are the leader
      leader = true;
    }
  }

  if (!leader) {
    // Join the in-flight compile: block until the leader publishes, then
    // share its result (which may be a failure — the caller sees the same
    // error the leader saw, and the key stays uncached for retries).
    info->joined = true;
    telemetry::Span span("cache.join", "engine");
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lk(latch->mu);
    latch->cv.wait(lk, [&] { return latch->ready; });
    static telemetry::Histogram& join_wait_ns = Hist("engine.cache.join_wait_ns");
    join_wait_ns.Record(ElapsedNs(t0));
    return latch->result;
  }

  // Leader: everything from here to Publish() runs OUTSIDE the shard lock so
  // other keys in this shard stay serviceable. If the disk probe or the
  // compile callback throws (bad_alloc is the realistic case), waiters must
  // still be released and the placeholder dropped — a dead latch would wedge
  // the key forever — so publish a failed result before propagating.
  CompiledModuleRef result;
  bool compiled_here = false;
  bool lease_held = false;
  // Level 2: probe the disk tier before paying a backend compile. An
  // accepted artifact is published exactly like a compile result; anything
  // unusable (absent, truncated, version drift, checksum mismatch) falls
  // through to the compiler. Runs up to twice per miss: once cold, and once
  // more after losing the cross-process compile lease to another process
  // (whose artifact should then be on disk).
  auto probe_disk = [&]() -> CompiledModuleRef {
    auto loaded = std::make_shared<CompiledModule>();
    if (!disk_.Load(module_hash, fingerprint, &loaded->artifact)) {
      return nullptr;
    }
    // Semantic verification of every loaded program, unconditionally:
    // the codec's checksum catches torn bytes; this catches an artifact
    // whose bytes are internally consistent but whose *program* is not
    // (a stale encoder, a hostile edit with a repaired checksum, a codec
    // bug). A failing artifact is treated exactly like a corrupt file —
    // deleted, counted, recompiled — and is never executed.
    const auto v0 = std::chrono::steady_clock::now();
    std::string diag = VerifyMachine(loaded->artifact.program());
    if (diag.empty()) {
      loaded->ok = true;
      loaded->from_disk = true;
      // Predecode is part of publishing a cache entry regardless of which
      // tier produced it: a warm-disk process pays it once per key here,
      // never per Instance or per run.
      loaded->BuildDecoded();
#if defined(NSF_VERIFY_IR) || !defined(NDEBUG)
      diag = VerifyDecodedProgram(loaded->artifact.program(), *loaded->decoded);
#endif
    }
    static telemetry::Histogram& verify_ns = Hist("engine.disk.verify_ns");
    verify_ns.Record(ElapsedNs(v0));
    if (!diag.empty()) {
      disk_.Discard(module_hash, fingerprint);
      verify_rejects_.fetch_add(1, std::memory_order_relaxed);
      static telemetry::Counter& rejects = Count("engine.verify_reject");
      rejects.Add();
      return nullptr;
    }
    info->hit = true;  // served from the cache — just the slower tier
    info->disk_loaded = true;
    return loaded;
  };
  try {
    if (disk_.enabled()) {
      result = probe_disk();
      if (result == nullptr) {
        // Cold everywhere. Serialize the compile across PROCESSES sharing
        // this cache dir: take the key's lease, or — if another process beat
        // us to it and already released — load its artifact instead of
        // recompiling. Winners Store() before EndCompile(), so once we get
        // past BeginCompile, an artifact existing means somebody published
        // between our cold probe and now: load it rather than recompile.
        // (The plain cold path stats one stat here, not a counted miss.)
        lease_held = disk_.BeginCompile(module_hash, fingerprint);
        if (disk_.Exists(module_hash, fingerprint)) {
          result = probe_disk();
        }
      }
    }
    if (result == nullptr) {
      result = compile();
      compiled_here = true;
      info->compiled = true;
    }
  } catch (...) {
    if (lease_held) {
      disk_.EndCompile(module_hash, fingerprint);
    }
    auto aborted = std::make_shared<CompiledModule>();
    aborted->artifact.module_hash = module_hash;
    aborted->artifact.options_fingerprint = fingerprint;
    aborted->error = "compile failed: exception during compilation";
    Publish(shard, key, latch, std::move(aborted));
    throw;
  }
  Publish(shard, key, latch, result);
  // Persist AFTER publishing so waiters are never blocked on file I/O, and
  // release the cross-process lease only once the artifact is on disk — a
  // lease loser that wakes up must find something to load.
  if (compiled_here && result != nullptr && result->ok) {
    disk_.Store(result->artifact);
  }
  if (lease_held) {
    disk_.EndCompile(module_hash, fingerprint);
  }
  return result;
}

size_t CodeCache::size() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::unique_lock<std::mutex> lock = LockShard(*shard);
    for (const auto& [key, entry] : shard->entries) {
      n += entry.code != nullptr ? 1 : 0;
    }
  }
  return n;
}

void CodeCache::Clear() {
  // Only completed entries are dropped; an entry with an in-flight compile
  // keeps its latch so the leader's publish still finds it. The hit index is
  // detached wholesale and RETIRED — a reader mid-probe finishes against the
  // old table under its epoch pin, and the nodes are freed only after every
  // such reader has unpinned.
  for (const auto& shard : shards_) {
    std::unique_lock<std::mutex> lock = LockShard(*shard);
    for (auto it = shard->entries.begin(); it != shard->entries.end();) {
      if (it->second.latch == nullptr) {
        it = shard->entries.erase(it);
      } else {
        it->second.code = nullptr;
        ++it;
      }
    }
    IndexTable* t = shard->index.load(std::memory_order_relaxed);
    if (t != nullptr) {
      shard->index.store(nullptr, std::memory_order_release);
      shard->index_live = 0;
      for (size_t i = 0; i < t->capacity; i++) {
        IndexNode* n = t->slots[i].load(std::memory_order_relaxed);
        if (n != nullptr) {
          ebr::EbrDomain::Global().Retire(n);
        }
      }
      ebr::EbrDomain::Global().Retire(t);
    }
  }
}

// --- TieringPolicy ---

CodegenOptions TieringPolicy::TierUp(const WorkloadSpec& spec, const CodegenOptions& base,
                                     std::string* error) {
  // Profile pointers stay valid outside the lock because TierManager's cache
  // is node-stable.
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Profile* cached = manager_.CachedProfile(spec.name);
    if (cached != nullptr) {
      return manager_.TierUp(base, cached);
    }
  }

  // Run the interpreter warm-up OUTSIDE the policy lock so cached-profile
  // fast paths and run-history updates proceed meanwhile. Counted whether or
  // not it succeeds — failures are not cached and will run again next time.
  warmup_runs_.fetch_add(1, std::memory_order_relaxed);
  telemetry::Span span("tier.warmup", "engine");
  span.arg("workload", spec.name);
  const auto warmup_t0 = std::chrono::steady_clock::now();
  Profile profile;
  const bool collected = manager_.Collect(spec, &profile, error);
  static telemetry::Histogram& warmup_ns = Hist("engine.tier.warmup_ns");
  warmup_ns.Record(ElapsedNs(warmup_t0));
  if (!collected) {
    return base;
  }

  const Profile* published = nullptr;
  {
    // First writer wins: a racer that profiled the same name gets the
    // already-cached profile back, so every caller tiers with one pointer.
    std::lock_guard<std::mutex> lock(mu_);
    published = manager_.Insert(spec.name, std::move(profile));
  }
  return manager_.TierUp(base, published);
}

bool TieringPolicy::HasProfile(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return manager_.CachedProfile(name) != nullptr;
}

const Profile* TieringPolicy::InsertProfile(const std::string& name, Profile profile) {
  std::lock_guard<std::mutex> lock(mu_);
  return manager_.Insert(name, std::move(profile));
}

void TieringPolicy::RecordRun(const std::string& name, double sim_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  RunHistory& h = history_[name];
  h.runs++;
  h.total_sim_seconds += sim_seconds;
  history_dirty_.fetch_add(1, std::memory_order_relaxed);
}

double TieringPolicy::ObservedSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = history_.find(name);
  return it != history_.end() && it->second.runs > 0
             ? it->second.total_sim_seconds / static_cast<double>(it->second.runs)
             : 0.0;
}

uint64_t TieringPolicy::ObservedRuns(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = history_.find(name);
  return it != history_.end() ? it->second.runs : 0;
}

bool TieringPolicy::LoadHistory(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return false;
  }
  telemetry::Span span("history.load", "engine");
  std::map<std::string, RunHistory> loaded;
  char line[1024];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    // "<runs> <total_sim_seconds> <name>" — the name last so it may contain
    // spaces; anything that doesn't parse is skipped, never fatal.
    char* end = nullptr;
    unsigned long long runs = std::strtoull(line, &end, 10);
    if (end == line || *end != ' ') {
      continue;
    }
    char* end2 = nullptr;
    double seconds = std::strtod(end + 1, &end2);
    if (end2 == end + 1 || *end2 != ' ') {
      continue;
    }
    std::string name(end2 + 1);
    while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
      name.pop_back();
    }
    if (name.empty() || runs == 0) {
      continue;
    }
    RunHistory& h = loaded[name];
    h.runs += runs;
    h.total_sim_seconds += seconds;
  }
  std::fclose(f);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, h] : loaded) {
    RunHistory& dst = history_[name];
    dst.runs += h.runs;
    dst.total_sim_seconds += h.total_sim_seconds;
  }
  span.arg("keys", static_cast<uint64_t>(loaded.size()));
  return true;
}

bool TieringPolicy::SaveHistory(const std::string& path) const {
  std::map<std::string, RunHistory> snapshot;
  uint64_t dirty_at_snapshot = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = history_;
    dirty_at_snapshot = history_dirty_.load(std::memory_order_relaxed);
  }
  if (snapshot.empty()) {
    return false;  // nothing observed; leave any previous file untouched
  }
  telemetry::Span span("history.save", "engine");
  std::string text;
  for (const auto& [name, h] : snapshot) {
    text += StrFormat("%llu %.9g %s\n", static_cast<unsigned long long>(h.runs),
                      h.total_sim_seconds, name.c_str());
  }
  // Atomic publish: readers (and a racing saver in another process) only
  // ever see a complete table.
  bool ok = WriteFileAtomic(path, text.data(), text.size());
  if (ok) {
    // Only the runs captured in the snapshot are durable; recordings that
    // raced in since stay dirty for the next flush.
    history_dirty_.fetch_sub(dirty_at_snapshot, std::memory_order_relaxed);
  }
  span.arg("keys", static_cast<uint64_t>(snapshot.size()));
  return ok;
}

size_t TieringPolicy::HistorySize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_.size();
}

double TieringPolicy::EstimateSeconds(const std::string& name, uint64_t* observed_runs) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = history_.find(name);
  uint64_t runs = it != history_.end() ? it->second.runs : 0;
  if (observed_runs != nullptr) {
    *observed_runs = runs;
  }
  if (runs > 0) {
    return it->second.total_sim_seconds / static_cast<double>(runs);
  }
  const Profile* p = manager_.CachedProfile(name);
  // Nominal instructions/second bridge; only the relative order matters.
  return p != nullptr ? static_cast<double>(p->total_instrs()) / 3.5e9 : 0.0;
}

// --- Engine ---

Engine::Engine(EngineConfig config)
    : config_(config),
      tiering_(config.tiering),
      cache_(config.cache_shards, config.cache_dir, config.disk_cache_max_bytes) {
  if (!config_.cache_dir.empty()) {
    tiering_.LoadHistory(RunHistoryPath());
  }
  // Background tiering needs the sampling signal (sample_period == 0 would
  // never mark a module hot) and the cache (the hot swap IS a cache
  // republish); without either, don't start the thread at all.
  if (config_.background_tiering && config_.sample_period != 0 && config_.cache_enabled) {
    tierer_ = std::make_unique<BackgroundTierer>(this, config_.tier_hot_samples,
                                                 config_.tier_scan_period_seconds);
  }
}

Engine::~Engine() {
  // Stop the tierer before anything it feeds (cache, tiering policy, stats)
  // starts tearing down.
  tierer_.reset();
  SaveRunHistory();
}

std::string Engine::RunHistoryPath() const {
  return config_.cache_dir.empty() ? std::string() : config_.cache_dir + "/run_history";
}

bool Engine::SaveRunHistory() const {
  std::string path = RunHistoryPath();
  if (path.empty()) {
    return false;
  }
  // The cache dir may not exist yet (disk stores create it lazily; a
  // run-history-only session may never store an artifact).
  std::error_code ec;
  std::filesystem::create_directories(config_.cache_dir, ec);
  return tiering_.SaveHistory(path);
}

bool Engine::FlushRunHistory() const {
  if (config_.cache_dir.empty() || tiering_.HistoryDirty() == 0) {
    return false;
  }
  return SaveRunHistory();
}

CompiledModuleRef Engine::CompileUncached(const Module& module, uint64_t module_hash,
                                          const CodegenOptions& options, uint64_t fingerprint) {
  telemetry::Span span("compile", "engine");
  span.arg("profile", options.profile_name.c_str());
  auto result = std::make_shared<CompiledModule>();
  {
    telemetry::Span vspan("validate", "engine");
    const auto t0 = std::chrono::steady_clock::now();
    ValidationResult vr = ValidateModule(module);
    static telemetry::Histogram& validate_ns = Hist("engine.validate_ns");
    validate_ns.Record(ElapsedNs(t0));
    if (!vr.ok) {
      result->artifact.module_hash = module_hash;
      result->artifact.options_fingerprint = fingerprint;
      result->artifact.profile_name = options.profile_name;
      result->error = "module invalid: " + vr.error;
      return result;
    }
  }
  compiles_.fetch_add(1, std::memory_order_relaxed);
  result->artifact = BuildArtifact(module, options, module_hash, fingerprint);
  AddSeconds(&compile_nanos_, result->stats().seconds);
  static telemetry::Histogram& compile_ns = Hist("engine.compile_ns");
  compile_ns.RecordSeconds(result->stats().seconds);
  if (!result->artifact.ok()) {
    result->error = "compile failed: " + result->artifact.compiled.error;
    return result;
  }
  result->ok = true;
  result->BuildDecoded();
  // Decoded cross-check at the compile boundary (the pass pipeline's IR and
  // machine verification already ran inside CompileModule when verify_ir):
  // every decoded record must round-trip to the MInstr it came from before
  // the entry is published.
  if (options.verify_ir) {
    const auto t0 = std::chrono::steady_clock::now();
    std::string diag = VerifyDecodedProgram(result->artifact.program(), *result->decoded);
    static telemetry::Histogram& verify_ns = Hist("engine.decode.verify_ns");
    verify_ns.Record(ElapsedNs(t0));
    if (!diag.empty()) {
      result->ok = false;
      result->decoded = nullptr;
      result->error = "decode verify failed: " + diag;
    }
  }
  return result;
}

CompiledModuleRef Engine::Compile(const Module& module, const CodegenOptions& options,
                                  CompileInfo* info) {
  uint64_t module_hash = HashModule(module);
  uint64_t fingerprint = options.Fingerprint();
  *info = CompileInfo();
  if (!config_.cache_enabled) {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    info->compiled = true;
    return CompileUncached(module, module_hash, options, fingerprint);
  }

  CompiledModuleRef result = cache_.GetOrCompile(
      module_hash, fingerprint,
      [&] { return CompileUncached(module, module_hash, options, fingerprint); }, info);

  if (info->joined) {
    compile_joins_.fetch_add(1, std::memory_order_relaxed);
  }
  // Joining another thread's successful compile counts as a hit: the caller
  // was served without paying a backend compile of its own.
  if (info->joined && result != nullptr && result->ok) {
    info->hit = true;
  }
  if (info->hit) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    // A disk-tier hit still saves the artifact's original backend compile
    // time — that is exactly the warm-start win the stats quantify.
    AddSeconds(&saved_nanos_, result->stats().seconds);
  } else {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

CompiledModuleRef Engine::Compile(const Module& module, const CodegenOptions& options,
                                  bool* was_hit) {
  CompileInfo info;
  CompiledModuleRef result = Compile(module, options, &info);
  if (was_hit != nullptr) {
    *was_hit = info.hit;
  }
  return result;
}

CompiledModuleRef Engine::CompileWorkload(const WorkloadSpec& spec,
                                          const CodegenOptions& options, bool* was_hit) {
  CompileInfo info;
  CompiledModuleRef result = CompileWorkload(spec, options, &info);
  if (was_hit != nullptr) {
    *was_hit = info.hit;
  }
  return result;
}

CompiledModuleRef Engine::CompileWorkload(const WorkloadSpec& spec,
                                          const CodegenOptions& options, CompileInfo* info) {
  CompiledModuleRef result = Compile(spec.build(), options, info);
  // A workload compile is the one place the engine has both the runnable
  // spec and the options key, so continuous tiering registers here.
  WatchForTierUp(result, spec, options);
  return result;
}

CodegenOptions Engine::TierUp(const WorkloadSpec& spec, const CodegenOptions& base,
                              std::string* error) {
  // Profile persistence (satellite to the disk artifact tier): a previous
  // process's warm-up profile lives next to the artifacts, so a warm process
  // seeds the in-memory profile cache and skips the interpreter run.
  bool persist = false;
  if (cache_.disk().enabled() && !tiering_.HasProfile(spec.name)) {
    Profile loaded;
    if (cache_.disk().LoadProfile(spec.name, &loaded)) {
      tiering_.InsertProfile(spec.name, std::move(loaded));
      static telemetry::Counter& profile_loads = Count("engine.tier.profile_disk_load");
      profile_loads.Add();
    } else {
      persist = true;  // the warm-up below is fresh: keep it for the next process
    }
  }
  CodegenOptions tiered = tiering_.TierUp(spec, base, error);
  // A racer may duplicate this write with identical bytes — StoreProfile
  // writes tmp + rename, so the race is harmless.
  if (persist && tiered.profile != nullptr) {
    cache_.disk().StoreProfile(spec.name, *tiered.profile);
  }
  return tiered;
}

std::shared_ptr<SampledProfile> Engine::SamplerFor(const CompiledModuleRef& code) {
  if (config_.sample_period == 0 || code == nullptr || !code->ok) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(sampler_mu_);
  std::shared_ptr<SampledProfile>& slot = samplers_[code->module_hash()];
  if (slot == nullptr) {
    slot = std::make_shared<SampledProfile>(
        static_cast<uint32_t>(code->program().funcs.size()), config_.sample_period);
  }
  return slot;
}

void Engine::WatchForTierUp(const CompiledModuleRef& code, const WorkloadSpec& spec,
                            const CodegenOptions& base) {
  // Only base-tier code is watched: options that already carry a profile ARE
  // the tiered artifact, and re-tiering it would loop.
  if (tierer_ == nullptr || code == nullptr || !code->ok || base.profile != nullptr) {
    return;
  }
  // After a hot swap, a warm hit on the base key hands back the TIERED
  // module (that is the point of the swap) — its profile name no longer
  // matches the requested base options. Watching it would re-tier forever.
  if (code->profile_name() != base.profile_name) {
    return;
  }
  std::shared_ptr<SampledProfile> sampler = SamplerFor(code);
  if (sampler != nullptr) {
    tierer_->Watch(code, spec, base, std::move(sampler));
  }
}

void Engine::DrainTierer() {
  if (tierer_ != nullptr) {
    tierer_->Drain();
  }
}

EngineStats Engine::Stats() const {
  EngineStats s;
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.compiles = compiles_.load(std::memory_order_relaxed);
  s.compile_joins = compile_joins_.load(std::memory_order_relaxed);
  s.tier_warmups = tiering_.warmup_runs();
  s.lock_waits = cache_.lock_waits();
  s.lock_wait_seconds = cache_.lock_wait_seconds();
  s.compile_seconds = static_cast<double>(compile_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  s.compile_seconds_saved =
      static_cast<double>(saved_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  DiskCacheStats d = cache_.disk().stats();
  s.disk_hits = d.hits;
  s.disk_misses = d.misses;
  s.disk_evictions = d.evictions;
  s.disk_load_failures = d.load_failures;
  s.disk_stores = d.stores;
  s.disk_lease_waits = d.lease_waits;
  s.disk_lease_takeovers = d.lease_takeovers;
  s.deserialize_seconds = d.deserialize_seconds;
  s.serialize_seconds = d.serialize_seconds;
  s.verify_rejects = cache_.verify_rejects();
  s.tier_swaps = tier_swaps_.load(std::memory_order_relaxed);
  s.background_recompiles = background_recompiles_.load(std::memory_order_relaxed);
  return s;
}

void Engine::ResetStats() {
  cache_hits_.store(0, std::memory_order_relaxed);
  cache_misses_.store(0, std::memory_order_relaxed);
  compiles_.store(0, std::memory_order_relaxed);
  compile_joins_.store(0, std::memory_order_relaxed);
  compile_nanos_.store(0, std::memory_order_relaxed);
  saved_nanos_.store(0, std::memory_order_relaxed);
  tier_swaps_.store(0, std::memory_order_relaxed);
  background_recompiles_.store(0, std::memory_order_relaxed);
  cache_.ResetTelemetry();  // keep lock_waits + disk stats consistent with the zeros
  tiering_.ResetWarmupCount();
}

// --- Session ---

Session::Session(Engine* engine)
    : engine_(engine), kernel_(std::make_unique<BrowsixKernel>()) {
  // Each worker thread owns its Session (executor.cc / serving.cc construct
  // one per thread), so this pre-registers the thread's epoch slot — the
  // first warm-hit probe never pays EBR registration.
  ebr::EbrDomain::Global().RegisterCurrentThread();
}

MemFs& Session::fs() { return kernel_->fs(); }

void Session::Reset() { kernel_ = std::make_unique<BrowsixKernel>(); }

std::unique_ptr<Instance> Session::Instantiate(CompiledModuleRef code,
                                               InstanceOptions options, std::string* error) {
  if (code == nullptr || !code->ok) {
    if (error != nullptr) {
      *error = code == nullptr ? "null compiled module" : code->error;
    }
    return nullptr;
  }
  const Export* entry = code->module().FindExport(options.entry, ExternalKind::kFunc);
  if (entry == nullptr) {
    if (error != nullptr) {
      *error = "no entry export " + options.entry;
    }
    return nullptr;
  }
  std::unique_ptr<Instance> inst(
      new Instance(this, std::move(code), std::move(options), entry->index));
  // Resolve the module's sampling sink once per Instance, not per run (null
  // unless EngineConfig::sample_period is set).
  inst->sampler_ = engine_->SamplerFor(inst->code_);
  return inst;
}

// --- Instance ---

RunOutcome Instance::Run() { return RunAtIndex(entry_index_, {}); }

RunOutcome Instance::RunExport(const std::string& name, const std::vector<uint64_t>& args) {
  const Export* e = code_->module().FindExport(name, ExternalKind::kFunc);
  if (e == nullptr) {
    RunOutcome out;
    out.error = "no entry export " + name;
    return out;
  }
  return RunAtIndex(e->index, args);
}

RunOutcome Instance::RunAtIndex(uint32_t func_index, const std::vector<uint64_t>& args) {
  RunOutcome out;
  telemetry::Span span("run", "engine");
  span.arg("profile", code_->profile_name());
  const auto run_t0 = std::chrono::steady_clock::now();
  // Fresh machine and process per run: repeated runs of one Instance must not
  // see each other's heap, only the session's shared filesystem. The machine
  // executes the module's shared DecodedProgram (predecoded once at cache
  // publish) and borrows its big buffers from the session's pool — both are
  // invisible to results, they only remove per-run setup cost.
  SimMachine machine(&code_->program(), code_->decoded_program(), &session_->buffer_pool());
  machine.set_dispatch(options_.dispatch);
  if (sampler_ != nullptr) {
    machine.set_sampler(sampler_.get(), session_->engine()->config().sample_period);
  }
  if (options_.fuel != 0) {
    machine.set_fuel(options_.fuel);
  }
  MachineMemPort port(&machine);
  auto process = session_->kernel().CreateProcess(&port, options_.argv);
  BindSyscalls(&machine, code_->compiled(), code_->module(), process.get());

  // Stack-args ABI: args staged below the stack top, rsp as if just called.
  uint64_t args_base = kStackBase + kStackSize - 8 * args.size();
  for (size_t i = 0; i < args.size(); i++) {
    machine.WriteStack(args_base + 8 * i, args[i]);
  }
  machine.ResetCounters();
  MachineResult mr = machine.RunAt(func_index, args_base);
  runs_++;
  static telemetry::Histogram& run_ns = Hist("engine.run_ns");
  run_ns.Record(ElapsedNs(run_t0));
  if (!mr.ok) {
    out.error = mr.error;
    span.arg("error", mr.error);
    return out;
  }
  out.ok = true;
  out.exit_code = mr.ret_i;
  out.counters = machine.counters();
  out.seconds = machine.SecondsFromCycles(out.counters.cycles());
  out.browsix_seconds = machine.SecondsFromCycles(machine.host_micro_cycles() / 4);
  out.syscalls = process->syscall_count();
  out.stdout_text = process->StdoutString();
  static telemetry::Histogram& run_sim_ns = Hist("engine.run_sim_ns");
  run_sim_ns.RecordSeconds(out.seconds);
  if (span.active()) {
    span.arg("instructions", out.counters.instructions_retired);
    span.arg("sim_seconds", out.seconds);
    span.arg("syscalls", out.syscalls);
  }
  return out;
}

}  // namespace engine
}  // namespace nsf

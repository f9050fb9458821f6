// The disk tier on one shared cache directory: racing cold writers of one
// key (each publishes a complete file; the last rename wins), LRU eviction
// by file mtime with a walk-seeded byte counter, and the faults the
// directory must survive (writers killed between tmp write and rename, an
// unusable cache path, tmp-name collisions across fork()).
//
// "Processes" here are mostly separate DiskCodeCache / Engine instances
// sharing a directory — from the filesystem's point of view (the only state
// the store and eviction paths use), that is exactly what two processes
// look like. One test forks two real processes for the warm start.
#include "src/engine/disk_cache.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <latch>
#include <memory>
#include <set>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/builder/builder.h"
#include "src/engine/engine.h"
#include "src/engine/executor.h"
#include "src/polybench/polybench.h"
#include "src/wasm/artifact_codec.h"
#include "src/wasm/encoder.h"

namespace nsf {
namespace {

namespace fs = std::filesystem;

[[maybe_unused]] const bool kEnvScrubbed = [] {
  unsetenv("NSF_CACHE_DIR");
  unsetenv("NSF_CACHE_MAX_BYTES");
  return true;
}();

struct TempCacheDir {
  explicit TempCacheDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("nsf-disk-test-" + tag + "-" + std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
  }
  ~TempCacheDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

engine::EngineConfig DiskConfig(const std::string& dir, uint64_t max_bytes = 0) {
  engine::EngineConfig config;
  config.cache_dir = dir;
  config.disk_cache_max_bytes = max_bytes;
  return config;
}

bool IsLowerHex(std::string_view s) {
  return std::all_of(s.begin(), s.end(),
                     [](char c) { return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'); });
}

// "nsfa-", 16 lowercase hex digits, "-", 16 more, ".bin": an artifact file.
bool IsArtifactName(std::string_view name) {
  return name.size() == 42 && name.starts_with("nsfa-") && name[21] == '-' &&
         name.ends_with(".bin") && IsLowerHex(name.substr(5, 16)) &&
         IsLowerHex(name.substr(22, 16));
}

// "nsfp-", 16 lowercase hex digits, ".bin": a tier-up profile file.
bool IsProfileName(std::string_view name) {
  return name.size() == 25 && name.starts_with("nsfp-") && name.ends_with(".bin") &&
         IsLowerHex(name.substr(5, 16));
}

Module SumSquaresModule(int32_t bias = 0) {
  ModuleBuilder mb("sum_squares");
  auto& f = mb.AddFunction("sum_squares", {ValType::kI32}, {ValType::kI32});
  uint32_t acc = f.AddLocal(ValType::kI32);
  uint32_t i = f.AddLocal(ValType::kI32);
  f.I32Const(bias).LocalSet(acc);
  f.ForI32Dyn(i, 1, 0, 1, [&] {
    f.LocalGet(acc).LocalGet(i).LocalGet(i).I32Mul().I32Add().LocalSet(acc);
  });
  f.LocalGet(acc);
  return mb.Build();
}

// --- racing cold writers ----------------------------------------------------

TEST(DiskTier, RacingColdEnginesEachPublishACompleteFile) {
  TempCacheDir dir("race");
  const Module m = SumSquaresModule(42);
  const CodegenOptions opts = CodegenOptions::ChromeV8();
  engine::Engine a(DiskConfig(dir.path));
  engine::Engine b(DiskConfig(dir.path));

  // Each engine's cache probes the empty directory, misses and compiles. The
  // latch holds each compile until the other engine has missed too, so both
  // then store a complete file for the key through their own tmp names, and
  // the last rename wins. (Two threads calling Engine::Compile seldom
  // overlap: one compile takes less than a scheduler time slice.)
  std::latch both_missed(2);
  auto compile = [&](engine::Engine* eng, engine::CompiledModuleRef* out,
                     engine::CompileInfo* info) {
    *out = eng->cache().GetOrCompile(
        HashModule(m), opts.Fingerprint(),
        [&] {
          both_missed.arrive_and_wait();
          auto code = std::make_shared<engine::CompiledModule>();
          code->artifact = BuildArtifact(m, opts);
          code->ok = code->artifact.ok();
          code->BuildDecoded();
          return engine::CompiledModuleRef(std::move(code));
        },
        info);
  };
  engine::CompiledModuleRef ra, rb;
  engine::CompileInfo ia, ib;
  std::thread ta(compile, &a, &ra, &ia);
  std::thread tb(compile, &b, &rb, &ib);
  ta.join();
  tb.join();

  ASSERT_TRUE(ra != nullptr && ra->ok);
  ASSERT_TRUE(rb != nullptr && rb->ok);
  EXPECT_TRUE(ia.compiled && ib.compiled);
  EXPECT_EQ(a.Stats().disk_stores + b.Stats().disk_stores, 2u);
  EXPECT_EQ(ra->program().total_code_bytes, rb->program().total_code_bytes);
  int artifacts = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp."), std::string::npos) << "unrenamed tmp file: " << name;
    artifacts += IsArtifactName(name) ? 1 : 0;
  }
  EXPECT_EQ(artifacts, 1);

  // Whichever rename won, the file is a complete artifact for the key.
  engine::Engine c(DiskConfig(dir.path));
  engine::CompiledModuleRef rc = c.Compile(m, opts);
  ASSERT_TRUE(rc->ok) << rc->error;
  EXPECT_TRUE(rc->from_disk);
  EXPECT_EQ(c.Stats().compiles, 0u);
  EXPECT_EQ(c.Stats().disk_hits, 1u);
}

// --- a second process over the same cache dir -----------------------------

// One process's whole life over `dir`, meant to run in a forked child: tier up
// two PolyBench kernels under both JIT profiles, run each base and tiered key
// through a 4-worker pool, then destroy the engine. Returns the exit status:
// 0 when every check held. Every key is produced once, by a backend compile or
// a disk load; with `warm`, all of them must come from disk, and the
// persisted profiles must spare every interpreter warm-up.
int RunOneProcess(const std::string& dir, bool warm) {
  engine::Engine eng(DiskConfig(dir));
  std::vector<engine::RunRequest> requests;
  std::set<std::pair<std::string, uint64_t>> keys;
  for (const char* kernel : {"cholesky", "trisolv"}) {
    WorkloadSpec spec = PolybenchSpec(kernel);
    for (const CodegenOptions& base : {CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM()}) {
      std::string error;
      CodegenOptions tiered = eng.TierUp(spec, base, &error);
      if (!error.empty()) {
        fprintf(stderr, "TierUp(%s): %s\n", kernel, error.c_str());
        return 1;
      }
      for (const CodegenOptions& options : {base, tiered}) {
        engine::RunRequest request;
        request.spec = spec;
        request.options = options;
        request.reps = 2;
        request.collect_outputs = false;
        requests.push_back(std::move(request));
        keys.insert({spec.name, options.Fingerprint()});
      }
    }
  }
  if (!engine::ExecutorPool(&eng, 4).Run(requests).all_ok()) {
    fprintf(stderr, "a run failed\n");
    return 2;
  }
  const engine::EngineStats s = eng.Stats();
  fprintf(stderr, "%s process: %zu keys, %llu compiles, %llu disk hits, %llu warm-ups\n",
          warm ? "second" : "first", keys.size(), static_cast<unsigned long long>(s.compiles),
          static_cast<unsigned long long>(s.disk_hits),
          static_cast<unsigned long long>(s.tier_warmups));
  if (s.compiles + s.disk_hits != keys.size()) {
    return 3;
  }
  if (warm && (s.compiles != 0 || s.disk_hits != keys.size() || s.tier_warmups != 0)) {
    return 4;
  }
  return 0;
}

// The compile-once-run-anywhere guarantee across real processes: the second
// of two processes over one cache dir compiles nothing, and clean exits
// leave only artifacts, profiles and the run history behind.
TEST(DiskTier, SecondProcessServesEveryKeyFromDisk) {
  TempCacheDir dir("two-processes");
  // The children fork one after the other, before this process starts any
  // thread; each builds its own engine and worker pool.
  for (bool warm : {false, true}) {
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::_exit(RunOneProcess(dir.path, warm));
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << (warm ? "second" : "first") << " process crashed";
    ASSERT_EQ(WEXITSTATUS(status), 0) << (warm ? "second" : "first") << " process failed";
  }
  int artifacts = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(IsArtifactName(name) || IsProfileName(name) || name == "run_history")
        << "stray file in the cache dir: " << name;
    artifacts += name.rfind("nsfa-", 0) == 0 ? 1 : 0;
  }
  EXPECT_GT(artifacts, 0);
}

TEST(DiskTier, UncontendedColdCompileStillCountsOneMiss) {
  TempCacheDir dir("uncontended");
  engine::Engine eng(DiskConfig(dir.path));
  ASSERT_TRUE(eng.Compile(SumSquaresModule(1), CodegenOptions::ChromeV8())->ok);
  engine::EngineStats s = eng.Stats();
  EXPECT_EQ(s.compiles, 1u);
  EXPECT_EQ(s.disk_misses, 1u);  // one probe before the compile
  EXPECT_EQ(s.disk_stores, 1u);
}

// --- LRU by mtime ---------------------------------------------------------

// Sum of published artifact sizes: the ground truth the counter must track.
uint64_t ArtifactBytesOnDisk(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("nsfa-", 0) == 0 && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".bin") == 0) {
      total += entry.file_size();
    }
  }
  return total;
}

TEST(DiskLru, BackToBackStoresEvictInStoreOrder) {
  TempCacheDir dir("same-tick");
  const CodegenOptions opts = CodegenOptions::ChromeV8();
  CompiledArtifact a = BuildArtifact(SumSquaresModule(1), opts);
  CompiledArtifact b = BuildArtifact(SumSquaresModule(2), opts);
  CompiledArtifact c = BuildArtifact(SumSquaresModule(3), opts);
  engine::DiskCodeCache probe("", 0);
  // Store the file whose NAME sorts last first: if the two stores' mtimes
  // tied, the (mtime, name) order would evict the second one instead.
  if (probe.PathForKey(a.module_hash, a.options_fingerprint) <
      probe.PathForKey(b.module_hash, b.options_fingerprint)) {
    std::swap(a, b);
  }
  const uint64_t one = SerializeArtifact(a).size();
  engine::DiskCodeCache cache(dir.path, one * 2 + one / 2);  // fits two
  cache.Store(a);
  cache.Store(b);  // same clock tick as `a` for a coarse kernel timestamp
  cache.Store(c);
  EXPECT_FALSE(fs::exists(cache.PathForKey(a.module_hash, a.options_fingerprint)))
      << "the older of two back-to-back stores must go first";
  EXPECT_TRUE(fs::exists(cache.PathForKey(b.module_hash, b.options_fingerprint)));
  EXPECT_TRUE(fs::exists(cache.PathForKey(c.module_hash, c.options_fingerprint)));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.DirSizeBytes(), ArtifactBytesOnDisk(dir.path));
}

TEST(DiskLru, EvictionDropsEntriesWhoseFilesAreAlreadyGone) {
  TempCacheDir dir("ghost");
  // Two artifacts counted, then one deleted behind the counter's back (an
  // "eviction by another process"). The next bounded stores must converge:
  // the eviction walk resyncs the counter and the bound holds.
  uint64_t one = 0;
  {
    engine::Engine probe(DiskConfig(dir.path));
    ASSERT_TRUE(probe.Compile(SumSquaresModule(0), CodegenOptions::ChromeV8())->ok);
    one = probe.cache().disk().DirSizeBytes();
  }
  fs::remove_all(dir.path);
  const uint64_t budget = one * 2 + one / 2;  // fits two artifacts
  engine::Engine eng(DiskConfig(dir.path, budget));
  ASSERT_TRUE(eng.Compile(SumSquaresModule(1), CodegenOptions::ChromeV8())->ok);
  ASSERT_TRUE(eng.Compile(SumSquaresModule(2), CodegenOptions::ChromeV8())->ok);
  uint64_t fp = CodegenOptions::ChromeV8().Fingerprint();
  fs::remove(eng.cache().disk().PathForKey(HashModule(SumSquaresModule(1)), fp));
  ASSERT_TRUE(eng.Compile(SumSquaresModule(3), CodegenOptions::ChromeV8())->ok);
  ASSERT_TRUE(eng.Compile(SumSquaresModule(4), CodegenOptions::ChromeV8())->ok);
  // Real bytes on disk respect the bound even though the counter briefly
  // carried the vanished file, and the last walk left the counter exact.
  uint64_t real = ArtifactBytesOnDisk(dir.path);
  EXPECT_LE(real, budget);
  EXPECT_EQ(eng.cache().disk().DirSizeBytes(), real);
}

// --- fault injection ------------------------------------------------------

void PlantFile(const std::string& path, fs::file_time_type mtime) {
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr) << path;
  fputs("orphaned bytes that must never be counted\n", f);
  fclose(f);
  fs::last_write_time(path, mtime);
}

TEST(DiskFault, CrashBetweenTmpWriteAndRenameIsReclaimedByTheWalk) {
  TempCacheDir dir("orphans");
  fs::create_directories(dir.path);
  engine::DiskCodeCache cache(dir.path, 0);
  // What a writer killed mid-flight leaves behind: a tmp file that never
  // got renamed, an hour old, plus a fresh tmp file a live writer may still
  // rename.
  const auto now = fs::file_time_type::clock::now();
  const std::string stale_tmp = cache.PathForKey(5, 6) + ".tmp.4242.0";
  const std::string fresh_tmp = cache.PathForKey(7, 8) + ".tmp.4243.0";
  PlantFile(stale_tmp, now - std::chrono::hours(1));
  PlantFile(fresh_tmp, now);

  cache.Store(BuildArtifact(SumSquaresModule(1), CodegenOptions::ChromeV8()));
  EXPECT_FALSE(fs::exists(stale_tmp));
  EXPECT_TRUE(fs::exists(fresh_tmp)) << "a young tmp file may belong to a live writer";
  EXPECT_EQ(cache.DirSizeBytes(), ArtifactBytesOnDisk(dir.path));
}

TEST(DiskFault, UnusableCacheDirectoryNeverFailsCompileOrRun) {
  TempCacheDir dir("not-a-dir");
  {
    // A regular file where the directory should be: no directory can be
    // created there (unlike chmod, this holds even for root).
    FILE* f = fopen(dir.path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fclose(f);
  }
  engine::Engine eng(DiskConfig(dir.path));
  engine::CompiledModuleRef code = eng.Compile(SumSquaresModule(5), CodegenOptions::ChromeV8());
  ASSERT_TRUE(code->ok) << code->error;
  engine::Session session(&eng);
  engine::InstanceOptions opts;
  opts.entry = "sum_squares";
  std::string err;
  auto instance = session.Instantiate(code, opts, &err);
  ASSERT_NE(instance, nullptr) << err;
  engine::RunOutcome run = instance->RunExport("sum_squares", {11});
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(eng.Stats().disk_stores, 0u);
  EXPECT_EQ(eng.Stats().compiles, 1u);

  eng.history().RecordRun("sum_squares", run.seconds);
  EXPECT_FALSE(eng.SaveRunHistory());
  EXPECT_TRUE(fs::is_regular_file(dir.path)) << "the blocking file is left alone";
}

TEST(DiskFault, ForkedWritersBuildDistinctTmpNames) {
  // Both sides of a fork() start from the same tmp counter, so a counter-only
  // name would collide in lockstep; the pid keeps them apart.
  const std::string path = "/cache/run_history";
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    std::string name = engine::UniqueTmpPath(path);
    ssize_t n = ::write(fds[1], name.data(), name.size());
    ::_exit(n == static_cast<ssize_t>(name.size()) ? 0 : 1);
  }
  ::close(fds[1]);
  std::string parent_name = engine::UniqueTmpPath(path);
  std::string child_name;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    child_name.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_NE(parent_name, child_name);
  // Both still carry the ".tmp." marker the orphan walk looks for.
  EXPECT_EQ(child_name.rfind(path + ".tmp.", 0), 0u) << child_name;
  EXPECT_EQ(parent_name.rfind(path + ".tmp.", 0), 0u) << parent_name;
}

}  // namespace
}  // namespace nsf

// The disk tier on one shared cache directory: the cross-process compile
// lease (exactly one compiler per cold key; losers wait and load the
// winner's artifact; crashed holders' stale leases are taken over), LRU
// eviction by file mtime with a walk-seeded byte counter, and the faults the
// directory must survive (writers killed between tmp write and rename, an
// unusable cache path, tmp-name collisions across fork()).
//
// "Processes" here are mostly separate DiskCodeCache / Engine instances
// sharing a directory — from the filesystem's point of view (the only state
// the lease and eviction protocols use), that is exactly what two processes
// look like.
#include "src/engine/disk_cache.h"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "src/builder/builder.h"
#include "src/engine/engine.h"
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
            ("nsf-lease-test-" + tag + "-" + std::to_string(::getpid())))
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

// --- lease primitives -----------------------------------------------------

TEST(DiskLease, AcquireCreatesLockFileReleaseRemovesIt) {
  TempCacheDir dir("basic");
  engine::DiskCodeCache cache(dir.path, 0);
  ASSERT_TRUE(cache.BeginCompile(1, 2));
  EXPECT_TRUE(fs::exists(cache.LockPathForKey(1, 2)));
  // An unrelated key is independent.
  ASSERT_TRUE(cache.BeginCompile(3, 4));
  cache.EndCompile(3, 4);
  cache.EndCompile(1, 2);
  EXPECT_FALSE(fs::exists(cache.LockPathForKey(1, 2)));
  EXPECT_EQ(cache.stats().lease_waits, 0u);
  EXPECT_EQ(cache.stats().lease_takeovers, 0u);
}

TEST(DiskLease, DisabledTierAlwaysGrants) {
  engine::DiskCodeCache cache("", 0);
  EXPECT_TRUE(cache.BeginCompile(1, 2));
  cache.EndCompile(1, 2);  // no-op, must not crash
}

TEST(DiskLease, LoserBlocksUntilWinnerReleasesThenYields) {
  TempCacheDir dir("wait");
  engine::DiskCodeCache winner(dir.path, 0);
  engine::DiskCodeCache loser(dir.path, 0);
  loser.SetLeaseTimingForTest(/*stale_age_ms=*/60000, /*poll_ms=*/1,
                              /*wait_max_ms=*/60000);
  ASSERT_TRUE(winner.BeginCompile(7, 9));

  std::atomic<int> outcome{-1};
  std::thread t([&] { outcome.store(loser.BeginCompile(7, 9) ? 1 : 0); });
  // The lease is held and fresh, so the loser can only be waiting.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(outcome.load(), -1);

  winner.EndCompile(7, 9);
  t.join();
  EXPECT_EQ(outcome.load(), 0) << "loser must yield, not acquire";
  EXPECT_EQ(loser.stats().lease_waits, 1u);
  EXPECT_EQ(loser.stats().lease_takeovers, 0u);
}

TEST(DiskLease, StaleLeaseFromDeadHolderIsTakenOver) {
  TempCacheDir dir("stale");
  engine::DiskCodeCache cache(dir.path, 0);
  cache.SetLeaseTimingForTest(/*stale_age_ms=*/30, /*poll_ms=*/1,
                              /*wait_max_ms=*/60000);
  // Fake the lock file a crashed holder left behind.
  fs::create_directories(dir.path);
  {
    FILE* f = fopen(cache.LockPathForKey(3, 4).c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("pid 0\n", f);
    fclose(f);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(cache.BeginCompile(3, 4)) << "stale lease must be reclaimed";
  EXPECT_GE(cache.stats().lease_takeovers, 1u);
  cache.EndCompile(3, 4);
  EXPECT_FALSE(fs::exists(cache.LockPathForKey(3, 4)));
}

// --- lease wired into the engine ------------------------------------------

TEST(DiskLease, RacingColdEnginesCollapseOntoOneCompiler) {
  TempCacheDir dir("race");
  Module m = SumSquaresModule(42);
  engine::Engine a(DiskConfig(dir.path));
  engine::Engine b(DiskConfig(dir.path));

  engine::CompiledModuleRef ra, rb;
  std::thread ta([&] { ra = a.Compile(m, CodegenOptions::ChromeV8()); });
  std::thread tb([&] { rb = b.Compile(m, CodegenOptions::ChromeV8()); });
  ta.join();
  tb.join();

  ASSERT_TRUE(ra != nullptr && ra->ok) << (ra ? ra->error : "null");
  ASSERT_TRUE(rb != nullptr && rb->ok) << (rb ? rb->error : "null");
  // The whole point: however the race interleaves, the backend ran ONCE
  // across both engines — the loser waited on the lease (or arrived after
  // release) and loaded the winner's artifact from disk.
  EXPECT_EQ(a.Stats().compiles + b.Stats().compiles, 1u);
  EXPECT_EQ(ra->program().total_code_bytes, rb->program().total_code_bytes);
  // No lease files may survive the race.
  uint64_t hash = HashModule(m);
  uint64_t fp = CodegenOptions::ChromeV8().Fingerprint();
  EXPECT_FALSE(fs::exists(a.cache().disk().LockPathForKey(hash, fp)));
}

TEST(DiskLease, UncontendedColdCompileStillCountsOneMiss) {
  TempCacheDir dir("uncontended");
  engine::Engine eng(DiskConfig(dir.path));
  ASSERT_TRUE(eng.Compile(SumSquaresModule(1), CodegenOptions::ChromeV8())->ok);
  engine::EngineStats s = eng.Stats();
  EXPECT_EQ(s.compiles, 1u);
  EXPECT_EQ(s.disk_misses, 1u);  // the lease's Exists() stat is not a probe
  EXPECT_EQ(s.disk_lease_waits, 0u);
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
  // What writers and lease holders killed mid-flight leave behind: a tmp
  // file that never got renamed and a lease nobody will release, both an
  // hour old, plus a fresh tmp file a live writer may still rename.
  const auto now = fs::file_time_type::clock::now();
  const std::string stale_tmp = cache.PathForKey(5, 6) + ".tmp.4242.0";
  const std::string stale_lock = cache.LockPathForKey(5, 6);
  const std::string fresh_tmp = cache.PathForKey(7, 8) + ".tmp.4243.0";
  PlantFile(stale_tmp, now - std::chrono::hours(1));
  PlantFile(stale_lock, now - std::chrono::hours(1));
  PlantFile(fresh_tmp, now);

  cache.Store(BuildArtifact(SumSquaresModule(1), CodegenOptions::ChromeV8()));
  EXPECT_FALSE(fs::exists(stale_tmp));
  EXPECT_FALSE(fs::exists(stale_lock));
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

  eng.tiering().RecordRun("sum_squares", run.seconds);
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

// Tiering-profile persistence in DiskCodeCache: profiles ride next to the
// code artifacts as nsfp- files, are invisible to the byte counter and LRU
// bound that govern nsfa- artifacts, survive to the next "process" (fresh
// Engine on the same directory), and let that warm process skip the
// interpreter warm-up entirely.
#include "src/engine/disk_cache.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "src/builder/builder.h"
#include "src/engine/engine.h"
#include "src/profile/sampled.h"

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
            ("nsf-profile-test-" + tag + "-" + std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
  }
  ~TempCacheDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

// A profile with non-trivial contents, via the sampled-profile scaling path.
Profile MakeProfile() {
  SampledProfile sp(/*num_funcs=*/3, /*period=*/32);
  uint64_t entries[3] = {5, 0, 2};
  uint64_t backedges[3] = {11, 7, 0};
  sp.Fold(entries, backedges, 3);
  return sp.ToProfile(/*num_imported=*/1);
}

Module LoopModule(int32_t iters) {
  ModuleBuilder mb("loop");
  auto& f = mb.AddFunction("main", {}, {ValType::kI32});
  uint32_t acc = f.AddLocal(ValType::kI32);
  uint32_t i = f.AddLocal(ValType::kI32);
  f.I32Const(1).LocalSet(acc);
  f.ForI32(i, 0, iters, 1, [&] {
    f.LocalGet(acc).I32Const(3).I32Mul().LocalGet(i).I32Add().LocalSet(acc);
  });
  f.LocalGet(acc);
  return mb.Build();
}

TEST(DiskProfile, StoreThenLoadRoundTripsAcrossInstances) {
  TempCacheDir dir("roundtrip");
  Profile p = MakeProfile();
  {
    engine::DiskCodeCache cache(dir.path, 0);
    cache.StoreProfile("bench/foo", p);
    EXPECT_TRUE(fs::exists(cache.ProfilePathForName("bench/foo")));
  }
  // A fresh cache on the same directory — a new process, as far as the disk
  // tier is concerned — reads the identical profile back.
  engine::DiskCodeCache cache(dir.path, 0);
  Profile loaded;
  ASSERT_TRUE(cache.LoadProfile("bench/foo", &loaded));
  ASSERT_EQ(loaded.num_funcs(), p.num_funcs());
  for (uint32_t i = 0; i < p.num_funcs(); i++) {
    EXPECT_EQ(loaded.func(i).entry_count, p.func(i).entry_count) << i;
    EXPECT_EQ(loaded.func(i).instrs_retired, p.func(i).instrs_retired) << i;
  }
  // Distinct workload names map to distinct files.
  EXPECT_NE(cache.ProfilePathForName("bench/foo"), cache.ProfilePathForName("bench/bar"));
  EXPECT_FALSE(cache.LoadProfile("bench/bar", &loaded));
}

TEST(DiskProfile, CorruptFileIsRejectedAndDeleted) {
  TempCacheDir dir("corrupt");
  engine::DiskCodeCache cache(dir.path, 0);
  cache.StoreProfile("victim", MakeProfile());
  const std::string path = cache.ProfilePathForName("victim");
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "not a profile";
  }
  Profile loaded;
  EXPECT_FALSE(cache.LoadProfile("victim", &loaded));
  EXPECT_FALSE(fs::exists(path)) << "corrupt profile must be reclaimed";
  EXPECT_GE(cache.stats().load_failures, 1u);
}

TEST(DiskProfile, ProfilesAreInvisibleToArtifactAccounting) {
  TempCacheDir dir("invisible");
  engine::DiskCodeCache cache(dir.path, 0);
  const uint64_t before = cache.DirSizeBytes();
  cache.StoreProfile("big", MakeProfile());
  // nsfp- files live outside the byte counter: no store counted, no size
  // accounted, nothing for the LRU to evict.
  EXPECT_EQ(cache.DirSizeBytes(), before);
  EXPECT_EQ(cache.stats().stores, 0u);
}

TEST(DiskProfile, WarmProcessSkipsInterpreterWarmup) {
  TempCacheDir dir("warm");
  WorkloadSpec spec;
  spec.name = "disk_tier";
  spec.build = [] { return LoopModule(1000); };
  const CodegenOptions base = CodegenOptions::ChromeV8();

  std::string error;
  uint64_t cold_entry_count = 0;
  {
    engine::EngineConfig config;
    config.cache_dir = dir.path;
    engine::Engine eng(config);
    CodegenOptions tiered = eng.TierUp(spec, base, &error);
    ASSERT_NE(tiered.profile, nullptr) << error;
    // The cold process runs the interpreter warm-up...
    EXPECT_EQ(eng.Stats().tier_warmups, 1u);
    cold_entry_count = tiered.profile->func(0).entry_count;
    // ...and persists what it learned next to the code artifacts.
    EXPECT_TRUE(fs::exists(eng.cache().disk().ProfilePathForName(spec.name)));
  }

  engine::EngineConfig config;
  config.cache_dir = dir.path;
  engine::Engine eng2(config);
  CodegenOptions tiered = eng2.TierUp(spec, base, &error);
  ASSERT_NE(tiered.profile, nullptr) << error;
  // The warm process loads the profile from disk instead.
  EXPECT_EQ(eng2.Stats().tier_warmups, 0u);
  EXPECT_EQ(tiered.profile->func(0).entry_count, cold_entry_count);
  EXPECT_EQ(tiered.profile_name, base.profile_name + "+pgo");
}

}  // namespace
}  // namespace nsf

// Hot code swap (CodeCache::Republish) and the BackgroundTierer: publish
// under the base key at a safe point, old code survives until its last
// holder drops, concurrent workers drain through a swap without a torn read
// (the tsan CI job runs this suite), counters stay bit-identical to one of
// the two published tiers, and the background thread's end-to-end loop
// (sample -> recompile -> swap) actually fires.
#include "src/engine/tierer.h"

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/builder/builder.h"
#include "src/engine/engine.h"

namespace nsf {
namespace {

[[maybe_unused]] const bool kEnvScrubbed = [] {
  unsetenv("NSF_CACHE_DIR");
  unsetenv("NSF_CACHE_MAX_BYTES");
  return true;
}();

// main(): a no-arg hot loop (warm-up collectable via CallExport(entry, {}))
// returning a checksum, or trapping on `unreachable` once the loop is done.
Module LoopModule(int32_t iters, bool trap_at_end = false) {
  ModuleBuilder mb("loop");
  auto& f = mb.AddFunction("main", {}, {ValType::kI32});
  uint32_t acc = f.AddLocal(ValType::kI32);
  uint32_t i = f.AddLocal(ValType::kI32);
  f.I32Const(1).LocalSet(acc);
  f.ForI32(i, 0, iters, 1, [&] {
    f.LocalGet(acc).I32Const(3).I32Mul().LocalGet(i).I32Add().LocalSet(acc);
  });
  if (trap_at_end) {
    f.Unreachable();
  } else {
    f.LocalGet(acc);
  }
  return mb.Build();
}

engine::EngineConfig MemOnlyConfig() {
  engine::EngineConfig config;
  config.cache_dir = "";
  return config;
}

engine::RunOutcome RunCode(engine::Session* session, const engine::CompiledModuleRef& code) {
  std::string error;
  auto inst = session->Instantiate(code, {}, &error);
  EXPECT_NE(inst, nullptr) << error;
  return inst->Run();
}

TEST(HotSwap, RepublishReplacesTheBaseKeyEntry) {
  engine::Engine eng(MemOnlyConfig());
  Module m = LoopModule(1000);
  engine::CompiledModuleRef base = eng.Compile(m, CodegenOptions::ChromeV8());
  ASSERT_TRUE(base->ok) << base->error;

  // Stand-in for the tierer's recompile: the same module under PGO'd
  // options, published under the BASE key.
  std::string error;
  WorkloadSpec spec;
  spec.name = "swap_unit";
  spec.build = [m] { return m; };
  CodegenOptions tiered = eng.TierUp(spec, CodegenOptions::ChromeV8(), &error);
  ASSERT_NE(tiered.profile, nullptr) << error;
  engine::CompiledModuleRef pgo = eng.Compile(m, tiered);
  ASSERT_TRUE(pgo->ok) << pgo->error;
  ASSERT_NE(pgo.get(), base.get());

  eng.cache().Republish(base->module_hash(), base->fingerprint(), pgo);
  engine::CompiledModuleRef now = eng.cache().Lookup(base->module_hash(), base->fingerprint());
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(now.get(), pgo.get());
  EXPECT_EQ(now->profile_name(), "chrome-v8+pgo");

  // A compile of the base options is now a warm hit on the SWAPPED entry.
  engine::CompileInfo info;
  engine::CompiledModuleRef again = eng.Compile(m, CodegenOptions::ChromeV8(), &info);
  EXPECT_TRUE(info.hit);
  EXPECT_EQ(again.get(), pgo.get());
}

TEST(HotSwap, OldCodeSurvivesUntilLastHolderDrops) {
  engine::Engine eng(MemOnlyConfig());
  Module m = LoopModule(1000);
  engine::CompiledModuleRef old_ref = eng.Compile(m, CodegenOptions::ChromeV8());
  ASSERT_TRUE(old_ref->ok);
  engine::RunOutcome before = [&] {
    engine::Session s(&eng);
    return RunCode(&s, old_ref);
  }();

  engine::CompiledModuleRef replacement = eng.Compile(m, CodegenOptions::FirefoxSM());
  ASSERT_TRUE(replacement->ok);
  eng.cache().Republish(old_ref->module_hash(), old_ref->fingerprint(), replacement);

  // The displaced module is NOT dead: this held ref still instantiates and
  // runs, on the old program, with identical results.
  engine::Session session(&eng);
  engine::RunOutcome after = RunCode(&session, old_ref);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.exit_code, before.exit_code);
  EXPECT_TRUE(after.counters == before.counters);
}

// The race suite proper: 8 workers hammer the warm-hit path and run what
// they get while the main thread republishes the key. Every run must land on
// a coherent tier: exit code identical everywhere, counters bit-identical to
// the base-tier or the PGO-tier reference. Run under tsan, this exercises
// the index's release-store publish against the epoch-pinned readers.
TEST(HotSwap, WorkersDrainCoherentlyAcrossSwaps) {
  engine::Engine eng(MemOnlyConfig());
  Module m = LoopModule(4000);
  const CodegenOptions base_opts = CodegenOptions::ChromeV8();
  engine::CompiledModuleRef base = eng.Compile(m, base_opts);
  ASSERT_TRUE(base->ok);

  std::string error;
  WorkloadSpec spec;
  spec.name = "swap_race";
  spec.build = [m] { return m; };
  CodegenOptions tiered_opts = eng.TierUp(spec, base_opts, &error);
  ASSERT_NE(tiered_opts.profile, nullptr) << error;
  engine::CompiledModuleRef pgo = eng.Compile(m, tiered_opts);
  ASSERT_TRUE(pgo->ok);

  // Reference counters for both tiers, single-threaded.
  engine::Session ref_session(&eng);
  engine::RunOutcome ref_base = RunCode(&ref_session, base);
  engine::RunOutcome ref_pgo = RunCode(&ref_session, pgo);
  ASSERT_TRUE(ref_base.ok);
  ASSERT_TRUE(ref_pgo.ok);
  ASSERT_EQ(ref_base.exit_code, ref_pgo.exit_code);  // semantics never change

  const uint64_t key_hash = base->module_hash();
  const uint64_t key_fp = base->fingerprint();
  constexpr int kWorkers = 8;
  constexpr int kRunsPerWorker = 25;
  std::atomic<bool> start{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; w++) {
    workers.emplace_back([&] {
      engine::Session session(&eng);
      while (!start.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kRunsPerWorker; i++) {
        engine::CompiledModuleRef code = eng.cache().Lookup(key_hash, key_fp);
        if (code == nullptr) {
          bad.fetch_add(1);
          continue;
        }
        engine::RunOutcome out = RunCode(&session, code);
        bool coherent = out.ok && out.exit_code == ref_base.exit_code &&
                        (out.counters == ref_base.counters || out.counters == ref_pgo.counters);
        if (!coherent) {
          bad.fetch_add(1);
        }
      }
    });
  }

  start.store(true, std::memory_order_release);
  // Swap back and forth while the workers drain: every published value is a
  // valid tier, so every read must be too.
  for (int s = 0; s < 50; s++) {
    eng.cache().Republish(key_hash, key_fp, s % 2 == 0 ? pgo : base);
  }
  for (std::thread& t : workers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  // The index slot holds whichever ref the last Republish published.
  engine::CompiledModuleRef final_ref = eng.cache().Lookup(key_hash, key_fp);
  ASSERT_NE(final_ref, nullptr);
  EXPECT_EQ(final_ref.get(), base.get());  // s == 49 published base
}

TEST(BackgroundTierer, SamplesDriveRecompileAndSwap) {
  engine::EngineConfig config;
  config.cache_dir = "";
  config.sample_period = 16;
  config.background_tiering = true;
  engine::Engine eng(config);

  WorkloadSpec spec;
  spec.name = "bg_tier";
  spec.build = [] { return LoopModule(20000); };

  const CodegenOptions base_opts = CodegenOptions::ChromeV8();
  engine::CompiledModuleRef base = eng.CompileWorkload(spec, base_opts);
  ASSERT_TRUE(base->ok) << base->error;
  EXPECT_EQ(base->profile_name(), "chrome-v8");

  // Drive sampled load: 20000 back-edges per run at period 16 crosses the
  // 64-sample threshold (BackgroundTierer::kHotSamples) on the first run.
  engine::Session session(&eng);
  engine::RunOutcome cold = RunCode(&session, base);
  ASSERT_TRUE(cold.ok) << cold.error;

  eng.DrainTierer();

  engine::EngineStats stats = eng.Stats();
  EXPECT_EQ(stats.tier_swaps, 1u);
  EXPECT_EQ(stats.background_recompiles, 1u);

  // The BASE key now serves the PGO tier; a fresh compile of the base
  // options is a warm hit on the swapped entry...
  engine::CompiledModuleRef now =
      eng.cache().Lookup(base->module_hash(), base->fingerprint());
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(now->profile_name(), "chrome-v8+pgo");
  // ...and runs with identical semantics.
  engine::RunOutcome warm = RunCode(&session, now);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.exit_code, cold.exit_code);

  // Steady-state identity: the background-tiered code is counter-identical
  // to what an offline Engine::TierUp + Compile on a separate engine builds.
  engine::Engine offline(MemOnlyConfig());
  std::string error;
  CodegenOptions tiered = offline.TierUp(spec, base_opts, &error);
  ASSERT_NE(tiered.profile, nullptr) << error;
  engine::CompiledModuleRef reference = offline.CompileWorkload(spec, tiered);
  ASSERT_TRUE(reference->ok) << reference->error;
  EXPECT_EQ(reference->profile_name(), now->profile_name());
  engine::Session offline_session(&offline);
  engine::RunOutcome ref_run = RunCode(&offline_session, reference);
  ASSERT_TRUE(ref_run.ok) << ref_run.error;
  EXPECT_TRUE(warm.counters == ref_run.counters);

  // Re-offering the workload does not re-tier (the watch is spent).
  eng.CompileWorkload(spec, base_opts);
  eng.DrainTierer();
  EXPECT_EQ(eng.Stats().tier_swaps, 1u);
}

// A module whose warm-up traps still tiers: TierOne falls back to the
// profile its samples imply, inserted as "<workload>#sampled", and swaps the
// recompiled code in under the base key.
TEST(BackgroundTierer, FailedWarmupFallsBackToSampledProfile) {
  engine::EngineConfig config;
  config.cache_dir = "";
  config.sample_period = 16;
  config.background_tiering = true;
  engine::Engine eng(config);

  WorkloadSpec spec;
  spec.name = "bg_trap";
  spec.build = [] { return LoopModule(20000, /*trap_at_end=*/true); };
  engine::CompiledModuleRef base = eng.CompileWorkload(spec, CodegenOptions::ChromeV8());
  ASSERT_TRUE(base->ok) << base->error;

  // The run traps after its 20000 back-edges, which already crossed the
  // sample threshold; the samples reach the sink all the same.
  engine::Session session(&eng);
  engine::RunOutcome cold = RunCode(&session, base);
  ASSERT_FALSE(cold.ok);

  eng.DrainTierer();
  engine::EngineStats stats = eng.Stats();
  EXPECT_EQ(stats.tier_warmups, 1u);  // the warm-up ran, and trapped
  EXPECT_EQ(stats.background_recompiles, 1u);
  EXPECT_EQ(stats.tier_swaps, 1u);

  engine::CompiledModuleRef now =
      eng.cache().Lookup(base->module_hash(), base->fingerprint());
  ASSERT_NE(now, nullptr);
  EXPECT_EQ(now->profile_name(), "chrome-v8+pgo");
  // The tiered code keeps the module's semantics: it traps the same way.
  engine::RunOutcome warm = RunCode(&session, now);
  EXPECT_FALSE(warm.ok);
  EXPECT_EQ(warm.error, cold.error);
}

TEST(BackgroundTierer, ColdModulesAreNeverTiered) {
  engine::EngineConfig config;
  config.cache_dir = "";
  config.sample_period = 64;
  config.background_tiering = true;
  engine::Engine eng(config);

  WorkloadSpec spec;
  spec.name = "bg_cold";
  // 100 back-edges at period 64: one or two samples, far below the
  // 64-sample threshold.
  spec.build = [] { return LoopModule(100); };
  engine::CompiledModuleRef base = eng.CompileWorkload(spec, CodegenOptions::ChromeV8());
  ASSERT_TRUE(base->ok);
  engine::Session session(&eng);
  ASSERT_TRUE(RunCode(&session, base).ok);

  eng.DrainTierer();  // returns immediately: nothing is past the threshold
  EXPECT_EQ(eng.Stats().tier_swaps, 0u);
  engine::CompiledModuleRef still =
      eng.cache().Lookup(base->module_hash(), base->fingerprint());
  ASSERT_NE(still, nullptr);
  EXPECT_EQ(still.get(), base.get());
}

}  // namespace
}  // namespace nsf

// Concurrency suite for the thread-safe Engine and the ExecutorPool batch
// layer: many threads hammering one Engine's sharded code cache (identical
// and distinct modules), counter coherence (hits + misses == Compile calls,
// exactly one backend compile per unique key), tier-up warm-up dedup, and
// Session::Reset isolation when instances run on different pool workers
// (no file, fd, or heap state may leak between runs).
//
// Runs under the CI ThreadSanitizer job (-DNSF_TSAN=ON): a data race in any
// of these paths fails the pipeline.
#include "src/engine/engine.h"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/builder/builder.h"
#include "src/engine/executor.h"
#include "src/kernel/kernel.h"
#include "src/runtime/wasmlib.h"
#include "src/support/rng.h"
#include "src/wasm/encoder.h"

namespace nsf {
namespace {

constexpr int kThreads = 8;

// Exact compile-count assertions require engines without an ambient disk
// tier; disk-tier tests below configure their cache dir explicitly.
[[maybe_unused]] const bool kEnvScrubbed = [] {
  unsetenv("NSF_CACHE_DIR");
  unsetenv("NSF_CACHE_MAX_BYTES");
  return true;
}();

// sum_squares(n) with an additive bias: bias-distinct modules have distinct
// encoded bytes, hence distinct content hashes.
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

// main(): creates /msg.txt and writes `text` into it.
Module WriterModule(const std::string& text) {
  ModuleBuilder mb("writer");
  mb.AddMemory(16);
  WasmLib lib = AddWasmLib(&mb, 1 << 20);
  mb.AddData(256, std::string("/msg.txt"));
  mb.AddData(320, text);
  auto& f = mb.AddFunction("main", {}, {ValType::kI32});
  uint32_t fd = f.AddLocal(ValType::kI32);
  f.I32Const(256).I32Const(kO_WRONLY | kO_CREAT | kO_TRUNC).Call(lib.sys.open).LocalSet(fd);
  f.LocalGet(fd).I32Const(320).Call(lib.write_cstr);
  f.LocalGet(fd).Call(lib.sys.close).Drop();
  f.I32Const(0);
  return mb.Build();
}

// main(): opens /msg.txt and returns its size, or -1 when absent. A reader
// scheduled after a writer must return -1 if and only if isolation holds.
Module ReaderModule() {
  ModuleBuilder mb("reader");
  mb.AddMemory(16);
  WasmLib lib = AddWasmLib(&mb, 1 << 20);
  mb.AddData(256, std::string("/msg.txt"));
  auto& f = mb.AddFunction("main", {}, {ValType::kI32});
  uint32_t fd = f.AddLocal(ValType::kI32);
  uint32_t n = f.AddLocal(ValType::kI32);
  f.I32Const(256).I32Const(kO_RDONLY).Call(lib.sys.open).LocalSet(fd);
  f.LocalGet(fd).I32Const(0).I32LtS();
  f.If([&] { f.I32Const(-1).Return(); });
  f.LocalGet(fd).Call(lib.sys.fsize).LocalSet(n);
  f.LocalGet(fd).Call(lib.sys.close).Drop();
  f.LocalGet(n);
  return mb.Build();
}

// main(): returns the heap word at a fixed address, then stores 42 there.
// On a fresh machine the load is always 0; any nonzero return means a
// previous run's heap leaked into this one.
Module HeapProbeModule() {
  ModuleBuilder mb("heap_probe");
  mb.AddMemory(16);
  auto& f = mb.AddFunction("main", {}, {ValType::kI32});
  uint32_t old = f.AddLocal(ValType::kI32);
  f.I32Const(4096).I32Load().LocalSet(old);
  f.I32Const(4096).I32Const(42).I32Store();
  f.LocalGet(old);
  return mb.Build();
}

WorkloadSpec SpecOf(const std::string& name, Module (*build)()) {
  WorkloadSpec spec;
  spec.name = name;
  spec.build = build;
  return spec;
}

TEST(EngineConcurrency, IdenticalModuleCompilesOnce) {
  engine::Engine eng;
  Module m = SumSquaresModule();
  const int kItersPerThread = 16;
  std::vector<engine::CompiledModuleRef> first_ref(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; i++) {
        engine::CompiledModuleRef code = eng.Compile(m, CodegenOptions::ChromeV8());
        if (code == nullptr || !code->ok) {
          failures.fetch_add(1);
          return;
        }
        if (first_ref[t] == nullptr) {
          first_ref[t] = code;
        } else if (first_ref[t].get() != code.get()) {
          failures.fetch_add(1);  // cache must keep returning the one object
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_EQ(failures.load(), 0);
  // Every thread got the same published CompiledModule.
  for (int t = 1; t < kThreads; t++) {
    EXPECT_EQ(first_ref[0].get(), first_ref[t].get());
  }
  engine::EngineStats stats = eng.Stats();
  EXPECT_EQ(stats.compiles, 1u);  // exactly one backend compile for the key
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            static_cast<uint64_t>(kThreads * kItersPerThread));
  // One leader took the miss; latch joiners and later calls are all hits.
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(eng.CacheSize(), 1u);
}

TEST(EngineConcurrency, DistinctModulesCompileIndependently) {
  engine::Engine eng;
  const int kItersPerThread = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Module m = SumSquaresModule(t + 1);  // one unique module per thread
      for (int i = 0; i < kItersPerThread; i++) {
        engine::CompiledModuleRef code = eng.Compile(m, CodegenOptions::FirefoxSM());
        if (code == nullptr || !code->ok) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_EQ(failures.load(), 0);
  engine::EngineStats stats = eng.Stats();
  EXPECT_EQ(stats.compiles, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.cache_misses, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.cache_hits, static_cast<uint64_t>(kThreads * (kItersPerThread - 1)));
  EXPECT_EQ(eng.CacheSize(), static_cast<size_t>(kThreads));
}

TEST(EngineConcurrency, MixedSharedAndDistinctKeysSumCorrectly) {
  engine::Engine eng;
  // A pool of 6 modules x 2 option sets = 12 unique keys, hammered in a
  // per-thread pseudorandom order.
  const int kModules = 6;
  const int kItersPerThread = 48;
  std::vector<Module> modules;
  for (int i = 0; i < kModules; i++) {
    modules.push_back(SumSquaresModule(i * 11));
  }
  std::vector<CodegenOptions> options = {CodegenOptions::ChromeV8(),
                                         CodegenOptions::FirefoxSM()};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Rng rng(0x9e3779b9u + t);
      for (int i = 0; i < kItersPerThread; i++) {
        const Module& m = modules[rng.Next() % kModules];
        const CodegenOptions& opts = options[rng.Next() % options.size()];
        engine::CompiledModuleRef code = eng.Compile(m, opts);
        if (code == nullptr || !code->ok) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_EQ(failures.load(), 0);
  engine::EngineStats stats = eng.Stats();
  EXPECT_EQ(stats.compiles, static_cast<uint64_t>(kModules * 2));
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            static_cast<uint64_t>(kThreads * kItersPerThread));
  // Misses = leaders only; every leader's compile succeeded and was cached.
  EXPECT_EQ(stats.cache_misses, static_cast<uint64_t>(kModules * 2));
  EXPECT_EQ(eng.CacheSize(), static_cast<size_t>(kModules * 2));
}

TEST(EngineConcurrency, FailedCompilesAreSharedButNeverCached) {
  engine::Engine eng;
  // Invalid module: function body missing entirely.
  Module broken;
  broken.types.push_back(FuncType{{}, {ValType::kI32}});
  Function f;
  f.type_index = 0;
  broken.functions.push_back(f);

  const int kItersPerThread = 8;
  std::atomic<int> wrong_results{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; i++) {
        engine::CompiledModuleRef code = eng.Compile(broken, CodegenOptions::ChromeV8());
        if (code == nullptr || code->ok ||
            code->error.find("module invalid") == std::string::npos) {
          wrong_results.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(wrong_results.load(), 0);
  engine::EngineStats stats = eng.Stats();
  EXPECT_EQ(stats.compiles, 0u);  // validation rejects before the backend
  EXPECT_EQ(stats.cache_hits, 0u);  // failures never count as cache service
  EXPECT_EQ(stats.cache_misses, static_cast<uint64_t>(kThreads * kItersPerThread));
  EXPECT_EQ(eng.CacheSize(), 0u);
}

TEST(EngineConcurrency, ConcurrentTierUpsConvergeOnOneProfilePerName) {
  // 2 * kThreads racers tier up kThreads DISTINCT workloads, two racers per
  // name. Warm-ups run outside the policy lock and same-name racers are not
  // deduplicated, so the warm-up count is bounded rather than exact: at
  // least one per name, at most one per racer. Every racer must still get
  // profiled options, identical per name (the first Insert wins, so all of a
  // name's racers tier with the same cached profile).
  engine::Engine eng;
  std::vector<WorkloadSpec> specs;
  for (int t = 0; t < kThreads; t++) {
    std::string text = "tier" + std::to_string(t);
    specs.push_back(WorkloadSpec{});
    specs.back().name = "tier_race_" + std::to_string(t);
    specs.back().build = [text] { return WriterModule(text); };
  }
  constexpr int kRacers = 2 * kThreads;
  std::vector<uint64_t> fingerprints(kRacers, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kRacers; t++) {
    threads.emplace_back([&, t] {
      std::string err;
      CodegenOptions tiered = eng.TierUp(specs[t % kThreads], CodegenOptions::ChromeV8(), &err);
      fingerprints[t] = tiered.Fingerprint();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const uint64_t warmups = eng.Stats().tier_warmups;
  EXPECT_GE(warmups, static_cast<uint64_t>(kThreads));
  EXPECT_LE(warmups, static_cast<uint64_t>(kRacers));
  const uint64_t base_fp = CodegenOptions::ChromeV8().Fingerprint();
  for (int t = 0; t < kRacers; t++) {
    // Every racer got profiled options (a failed warm-up returns base).
    EXPECT_NE(fingerprints[t], base_fp) << "racer " << t;
    // Same name => same cached profile => same tiered fingerprint.
    EXPECT_EQ(fingerprints[t], fingerprints[t % kThreads]) << "racer " << t;
  }
}

TEST(EngineConcurrency, ManyEnginesRacingOnOneCacheDirStayCorrect) {
  // The disk tier is cross-engine (and cross-process) shared state: kThreads
  // engines hammer one cache directory with overlapping keys — every result
  // must be valid and byte-identical to a reference compile, regardless of
  // who stored, loaded, or evicted what.
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("nsf-conc-cache-" + std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(dir);
  engine::EngineConfig config;
  config.cache_dir = dir;

  const int kModules = 4;
  const int kItersPerThread = 12;
  // Reference listings from a diskless engine.
  std::vector<std::string> reference;
  {
    engine::Engine ref_eng;
    for (int i = 0; i < kModules; i++) {
      engine::CompiledModuleRef r =
          ref_eng.Compile(SumSquaresModule(i * 3), CodegenOptions::ChromeV8());
      ASSERT_TRUE(r->ok);
      std::string listing;
      for (const MFunction& f : r->program().funcs) {
        listing += MFunctionToString(f);
      }
      reference.push_back(std::move(listing));
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      engine::Engine eng(config);  // each thread: its own engine, shared dir
      Rng rng(0x51ca9e + t);
      for (int i = 0; i < kItersPerThread; i++) {
        int which = static_cast<int>(rng.Next() % kModules);
        engine::CompiledModuleRef code =
            eng.Compile(SumSquaresModule(which * 3), CodegenOptions::ChromeV8());
        if (code == nullptr || !code->ok) {
          failures.fetch_add(1);
          continue;
        }
        std::string listing;
        for (const MFunction& f : code->program().funcs) {
          listing += MFunctionToString(f);
        }
        if (listing != reference[which]) {
          failures.fetch_add(1);  // disk round-trip altered the program
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // After the dust settles, a fresh engine warm-starts every key from disk.
  engine::Engine warm(config);
  for (int i = 0; i < kModules; i++) {
    engine::CompiledModuleRef code =
        warm.Compile(SumSquaresModule(i * 3), CodegenOptions::ChromeV8());
    ASSERT_TRUE(code->ok);
    EXPECT_TRUE(code->from_disk) << "module " << i;
  }
  EXPECT_EQ(warm.Stats().compiles, 0u);
  EXPECT_EQ(warm.Stats().disk_hits, static_cast<uint64_t>(kModules));
  std::filesystem::remove_all(dir);
}

TEST(EngineConcurrency, RacingStoresWithTinyBudgetNeverBreakResults) {
  // Concurrent stores + LRU eviction racing on one directory: artifacts may
  // be evicted between another engine's probe and load — that must only ever
  // cause recompiles, never failures or wrong code.
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("nsf-conc-evict-" + std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(dir);
  engine::EngineConfig config;
  config.cache_dir = dir;
  config.disk_cache_max_bytes = 16 << 10;  // a few artifacts at most

  const int kModules = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      engine::Engine eng(config);
      for (int i = 0; i < 8; i++) {
        int which = (t + i) % kModules;
        engine::CompiledModuleRef code =
            eng.Compile(SumSquaresModule(which * 7), CodegenOptions::FirefoxSM());
        if (code == nullptr || !code->ok) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // The size bound is enforced per-writer (each engine's counter sees its own
  // stores between eviction resyncs), so files another engine renamed after
  // the last racer's eviction walk can leave the directory transiently over
  // budget. One more store from a fresh engine seeds its counter from an
  // exact scan of EVERYTHING and must converge the directory to the bound.
  engine::Engine closer(config);
  ASSERT_TRUE(closer.Compile(SumSquaresModule(999), CodegenOptions::FirefoxSM())->ok);
  EXPECT_LE(closer.cache().disk().DirSizeBytes(), config.disk_cache_max_bytes);
  std::filesystem::remove_all(dir);
}

TEST(ExecutorPool, LptSchedulesByProfiledWorkFifoKeepsOrder) {
  engine::Engine eng;
  // Three workloads with very different profiled work: writer_big interprets
  // far more instructions than writer_small during warm-up.
  auto spec_of = [](const std::string& name, int reps) {
    WorkloadSpec spec;
    spec.name = name;
    spec.build = [reps] {
      ModuleBuilder mb("w");
      auto& f = mb.AddFunction("main", {}, {ValType::kI32});
      uint32_t acc = f.AddLocal(ValType::kI32);
      uint32_t i = f.AddLocal(ValType::kI32);
      f.ForI32(i, 0, reps, 1, [&] { f.LocalGet(acc).I32Const(1).I32Add().LocalSet(acc); });
      f.LocalGet(acc);
      return mb.Build();
    };
    return spec;
  };
  WorkloadSpec small = spec_of("lpt_small", 10);
  WorkloadSpec big = spec_of("lpt_big", 5000);
  std::string err;
  eng.TierUp(small, CodegenOptions::ChromeV8(), &err);
  ASSERT_TRUE(err.empty()) << err;
  eng.TierUp(big, CodegenOptions::ChromeV8(), &err);
  ASSERT_TRUE(err.empty()) << err;
  // No run history yet, so the estimate falls back to the warm-up profile.
  EXPECT_GT(eng.tiering().EstimateSeconds("lpt_big"), eng.tiering().EstimateSeconds("lpt_small"));
  EXPECT_EQ(eng.tiering().EstimateSeconds("never_profiled"), 0.0);

  // Queue order: small first. Under LPT with ONE worker, the big job must
  // execute first (its run finishes earlier in the worker's timeline); under
  // FIFO the small job does. Wall-clock start order is observable through
  // per-worker accumulation: with 1 worker, runs execute in dispatch order.
  engine::RunRequest small_req;
  small_req.spec = small;
  small_req.options = CodegenOptions::ChromeV8();
  small_req.collect_outputs = false;
  engine::RunRequest big_req = small_req;
  big_req.spec = big;

  engine::ExecutorPool pool(&eng, 1);
  engine::BatchReport lpt = pool.Run({small_req, big_req}, engine::SchedulePolicy::kLpt);
  ASSERT_TRUE(lpt.all_ok());
  EXPECT_EQ(lpt.schedule, engine::SchedulePolicy::kLpt);
  // Results stay (request_index, rep)-ordered even though dispatch reordered.
  ASSERT_EQ(lpt.runs.size(), 2u);
  EXPECT_EQ(lpt.runs[0].request_index, 0u);
  EXPECT_EQ(lpt.runs[1].request_index, 1u);

  engine::BatchReport fifo = pool.Run({small_req, big_req}, engine::SchedulePolicy::kFifo);
  ASSERT_TRUE(fifo.all_ok());
  EXPECT_EQ(fifo.schedule, engine::SchedulePolicy::kFifo);
  // Identical work either way: scheduling must not change WHAT ran.
  EXPECT_NEAR(fifo.sim_seconds_total, lpt.sim_seconds_total, 1e-12);
}

TEST(ExecutorPool, WorkerIsolationNoFileLeaksAcrossRuns) {
  engine::Engine eng;
  // Writers stage /msg.txt; readers probe for it. With Reset() before every
  // run, no reader — same worker or different — may ever observe the file.
  engine::RunRequest writer;
  writer.spec = SpecOf("writer", [] { return WriterModule("leak?"); });
  writer.reps = 8;
  writer.collect_outputs = false;
  engine::RunRequest reader;
  reader.spec = SpecOf("reader", ReaderModule);
  reader.reps = 8;
  reader.collect_outputs = false;
  for (engine::RunRequest* r : {&writer, &reader}) {
    r->options = CodegenOptions::ChromeV8();
  }

  engine::ExecutorPool pool(&eng, 4);
  engine::BatchReport report = pool.Run({writer, reader, writer, reader});
  ASSERT_TRUE(report.all_ok()) << report.failed_runs << " runs failed";
  ASSERT_EQ(report.runs.size(), 32u);
  int readers_seen = 0;
  for (const engine::BatchRunResult& run : report.runs) {
    if (run.request_index == 1 || run.request_index == 3) {
      readers_seen++;
      EXPECT_EQ(static_cast<int32_t>(run.outcome.exit_code), -1)
          << "reader on worker " << run.worker << " saw a leaked /msg.txt";
    }
  }
  EXPECT_EQ(readers_seen, 16);
}

TEST(ExecutorPool, WorkerIsolationNoHeapLeaksAcrossRuns) {
  engine::Engine eng;
  engine::RunRequest probe;
  probe.spec = SpecOf("heap_probe", HeapProbeModule);
  probe.options = CodegenOptions::ChromeV8();
  probe.reps = 24;
  probe.collect_outputs = false;

  engine::ExecutorPool pool(&eng, 4);
  engine::BatchReport report = pool.Run({probe});
  ASSERT_TRUE(report.all_ok());
  ASSERT_EQ(report.runs.size(), 24u);
  for (const engine::BatchRunResult& run : report.runs) {
    // Every run gets a zeroed fresh machine: the probe's pre-store load must
    // never observe the 42 a previous run wrote.
    EXPECT_EQ(run.outcome.exit_code, 0u) << "heap state leaked into a later run";
  }
}

TEST(ExecutorPool, BatchReportAggregatesCountersAndSchedule) {
  engine::Engine eng;
  engine::RunRequest writer;
  writer.spec = SpecOf("writer", [] { return WriterModule("report"); });
  writer.spec.output_files = {"/msg.txt"};
  writer.options = CodegenOptions::ChromeV8();
  writer.reps = 6;

  engine::ExecutorPool pool(&eng, 3);
  engine::BatchReport report = pool.Run({writer});
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(report.workers, 3);
  EXPECT_EQ(report.ok_runs, 6u);
  EXPECT_EQ(report.failed_runs, 0u);
  EXPECT_EQ(report.worker_sim_seconds.size(), 3u);

  double sum = 0;
  double max_worker = 0;
  for (double s : report.worker_sim_seconds) {
    sum += s;
    max_worker = std::max(max_worker, s);
  }
  EXPECT_NEAR(sum, report.sim_seconds_total, 1e-12);
  EXPECT_NEAR(max_worker, report.sim_makespan_seconds, 1e-12);
  EXPECT_GT(report.sim_seconds_total, 0.0);
  EXPECT_GE(report.wall_seconds, 0.0);

  // Output collection worked on worker sessions: every run captured /msg.txt.
  for (const engine::BatchRunResult& run : report.runs) {
    ASSERT_EQ(run.outputs.size(), 1u);
    EXPECT_EQ(run.outputs[0].first, "/msg.txt");
    EXPECT_EQ(std::string(run.outputs[0].second.begin(), run.outputs[0].second.end()),
              "report");
  }

  // Engine-side accounting across the batch: one compile, the rest hits.
  engine::EngineStats delta = report.stats_after;  // engine was fresh
  EXPECT_EQ(delta.compiles, 1u);
  EXPECT_EQ(delta.cache_hits + delta.cache_misses, 6u);
}

TEST(Session, RunBatchSerialMatchesPoolSemantics) {
  engine::Engine eng;
  engine::RunRequest writer;
  writer.spec = SpecOf("writer", [] { return WriterModule("serial"); });
  writer.options = CodegenOptions::ChromeV8();
  writer.reps = 2;
  engine::RunRequest reader;
  reader.spec = SpecOf("reader", ReaderModule);
  reader.options = CodegenOptions::ChromeV8();
  reader.reps = 2;

  engine::Session session(&eng);
  engine::BatchReport report = session.RunBatch({writer, reader});
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(report.workers, 1);
  ASSERT_EQ(report.runs.size(), 4u);
  ASSERT_EQ(report.worker_sim_seconds.size(), 1u);
  EXPECT_NEAR(report.sim_makespan_seconds, report.sim_seconds_total, 1e-12);
  // Reset() isolation between serial runs: the readers never see /msg.txt.
  for (const engine::BatchRunResult& run : report.runs) {
    EXPECT_EQ(run.worker, 0);
    if (run.request_index == 1) {
      EXPECT_EQ(static_cast<int32_t>(run.outcome.exit_code), -1);
    }
  }
  // RunBatch's Reset() also dropped anything staged before the batch.
  std::vector<uint8_t> bytes;
  EXPECT_FALSE(session.fs().ReadFile("/msg.txt", &bytes));
}

}  // namespace
}  // namespace nsf

// Epoch-based reclamation: the grace-period contract (nothing is freed while
// any reader that could hold it is still pinned), guard nesting, thread
// lifecycle, and the CodeCache integration — wait-free warm hits racing
// Clear()/republish retirement, and the lock_waits == 0 guarantee on the
// pure warm-hit path. These tests are the payload of the tsan CI job: the
// canary/stress cases exist to give the race detector (and ASan) something
// to bite on if the protocol regresses.
#include "src/engine/ebr.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/builder/builder.h"
#include "src/engine/engine.h"

namespace nsf {
namespace {

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

struct Tracked {
  explicit Tracked(std::atomic<int>* freed) : freed_count(freed) {}
  ~Tracked() { freed_count->fetch_add(1); }
  std::atomic<int>* freed_count;
};

TEST(Ebr, RetireFreesAfterGracePeriodWithNoReaders) {
  ebr::EbrDomain domain;
  std::atomic<int> freed{0};
  domain.Retire(new Tracked(&freed));
  EXPECT_EQ(domain.retired(), 1u);
  // No reader is pinned, so a couple of collections advance the epoch past
  // the grace period and run the deleter.
  for (int i = 0; i < 4 && freed.load() == 0; i++) {
    domain.Collect();
  }
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(domain.reclaimed(), 1u);
  EXPECT_EQ(domain.pending(), 0u);
}

TEST(Ebr, PinnedReaderDefersReclamationUntilUnpin) {
  ebr::EbrDomain domain;
  std::atomic<int> freed{0};
  {
    ebr::EbrGuard guard(domain);
    domain.Retire(new Tracked(&freed));
    // However hard the collector tries, our pin caps the epoch advance below
    // the retiree's grace period.
    for (int i = 0; i < 8; i++) {
      domain.Collect();
    }
    EXPECT_EQ(freed.load(), 0) << "freed while a reader was pinned";
    EXPECT_EQ(domain.pending(), 1u);
  }
  for (int i = 0; i < 4 && freed.load() == 0; i++) {
    domain.Collect();
  }
  EXPECT_EQ(freed.load(), 1);
}

TEST(Ebr, NestedGuardsShareTheOutermostPin) {
  ebr::EbrDomain domain;
  std::atomic<int> freed{0};
  {
    ebr::EbrGuard outer(domain);
    {
      ebr::EbrGuard inner(domain);
      domain.Retire(new Tracked(&freed));
    }
    // The inner guard's destruction must NOT unpin the thread.
    for (int i = 0; i < 8; i++) {
      domain.Collect();
    }
    EXPECT_EQ(freed.load(), 0) << "inner guard dropped the outer pin";
  }
  for (int i = 0; i < 4 && freed.load() == 0; i++) {
    domain.Collect();
  }
  EXPECT_EQ(freed.load(), 1);
}

TEST(Ebr, ExitedThreadsSlotDoesNotStallReclamation) {
  ebr::EbrDomain domain;
  std::atomic<int> freed{0};
  std::thread t([&] {
    ebr::EbrGuard guard(domain);  // pin and unpin, then exit the thread
  });
  t.join();
  domain.Retire(new Tracked(&freed));
  for (int i = 0; i < 4 && freed.load() == 0; i++) {
    domain.Collect();
  }
  EXPECT_EQ(freed.load(), 1) << "a dead thread's slot blocked the epoch";
}

// The core safety property under fire: readers continuously pin, load the
// current node, and verify its canary; a writer continuously republishes and
// retires the previous node with a deleter that scribbles the canary before
// freeing. If reclamation ever runs inside a reader's grace period, the
// reader observes the scribble (and tsan/ASan observe the use-after-free).
TEST(Ebr, ConcurrentReadersNeverObserveRetiredMemory) {
  static constexpr uint64_t kAlive = 0xC0FFEE0DDEADBEAF;
  static constexpr uint64_t kScribbled = 0x0BAD0BAD0BAD0BAD;
  struct Node {
    uint64_t canary = kAlive;
  };
  ebr::EbrDomain domain;
  std::atomic<Node*> current{new Node()};
  std::atomic<uint64_t> bad_reads{0};
  std::atomic<bool> stop{false};

  const int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&] {
      domain.RegisterCurrentThread();
      while (!stop.load(std::memory_order_relaxed)) {
        ebr::EbrGuard guard(domain);
        Node* n = current.load(std::memory_order_acquire);
        if (n->canary != kAlive) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 20000; i++) {
    Node* fresh = new Node();
    Node* old = current.exchange(fresh, std::memory_order_acq_rel);
    domain.RetireErased(old, [](void* p) {
      static_cast<Node*>(p)->canary = kScribbled;
      delete static_cast<Node*>(p);
    });
  }
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_GT(domain.reclaimed(), 0u) << "reclamation never ran under load";
  // Quiesce: with all readers gone the backlog drains completely.
  for (int i = 0; i < 6 && domain.pending() > 0; i++) {
    domain.Collect();
  }
  EXPECT_EQ(domain.pending(), 0u);
  delete current.load();
}

// --- CodeCache integration -------------------------------------------------

// Readers hammer the wait-free hit path while the main thread repeatedly
// Clear()s the cache (retiring every index node and table) and recompiles.
// Every read must land on a valid module — either the pre-Clear entry held
// alive by its epoch pin + shared_ptr, or the republished one.
TEST(EbrCodeCache, WarmHitsSurviveConcurrentClearAndRepublish) {
  engine::Engine eng;
  Module m = SumSquaresModule(7);
  const CodegenOptions opts = CodegenOptions::ChromeV8();
  ASSERT_TRUE(eng.Compile(m, opts)->ok);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  const int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        engine::CompiledModuleRef code = eng.Compile(m, opts);
        if (code == nullptr || !code->ok ||
            code->program().total_code_bytes == 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 100; i++) {
    eng.ClearCache();  // retires the index wholesale
    ASSERT_TRUE(eng.Compile(m, opts)->ok);  // republish under a new table
  }
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
}

// The tentpole's headline guarantee: once a key is warm, concurrent hits
// never touch a shard mutex — lock_waits stays exactly 0 no matter how many
// threads pile onto one key.
TEST(EbrCodeCache, PureWarmHitPathTakesZeroLockWaits) {
  engine::Engine eng;
  Module m = SumSquaresModule(3);
  const CodegenOptions opts = CodegenOptions::ChromeV8();
  ASSERT_TRUE(eng.Compile(m, opts)->ok);
  const engine::EngineStats before = eng.Stats();

  const int kThreads = 8;
  const int kHitsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<uint64_t> misses{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kHitsPerThread; i++) {
        engine::CompileInfo info;
        engine::CompiledModuleRef code = eng.Compile(m, opts, &info);
        if (code == nullptr || !code->ok || !info.hit) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const engine::EngineStats after = eng.Stats();
  EXPECT_EQ(misses.load(), 0u);
  EXPECT_EQ(after.cache_hits - before.cache_hits,
            static_cast<uint64_t>(kThreads) * kHitsPerThread);
  EXPECT_EQ(after.compiles - before.compiles, 0u);
  EXPECT_EQ(after.lock_waits - before.lock_waits, 0u) << "a warm hit blocked on a shard mutex";
}

// CodeCache::Lookup is the whole warm-hit read path, so no reader may ever
// take a shard lock: not at any reader count, and not while a writer Clear()s
// and republishes every key. The keys span all 16 shards, all sharing one
// compiled module. Readers call Lookup directly: an Engine::Compile landing
// between a Clear and its republish would take the slow path and may
// legitimately wait for the writer's lock.
TEST(EbrCodeCache, LookupTakesNoLockAtAnyReaderCountWithOrWithoutChurn) {
  engine::EngineConfig config;
  config.cache_dir = "";
  engine::Engine eng(config);
  const engine::CompiledModuleRef module =
      eng.Compile(SumSquaresModule(5), CodegenOptions::ChromeV8());
  ASSERT_TRUE(module != nullptr && module->ok);

  // 1,024 golden-ratio multiples spread over every shard.
  constexpr uint32_t kKeys = 1024;
  constexpr uint64_t kFingerprint = 0x5eed5eed5eed5eedULL;
  constexpr uint64_t kLookupsPerReader = 2000;
  auto key_hash = [](uint32_t k) { return 0x9E3779B97F4A7C15ULL * (k + 1); };
  auto publish_all = [&](engine::CodeCache& cache) {
    for (uint32_t k = 0; k < kKeys; k++) {
      engine::CompileInfo info;
      cache.GetOrCompile(key_hash(k), kFingerprint, [&] { return module; }, &info);
    }
  };

  for (bool churn : {false, true}) {
    for (int readers : {1, 2, 4, 8, 16}) {
      SCOPED_TRACE(testing::Message() << (churn ? "churn" : "steady") << ", " << readers
                                      << " readers");
      engine::CodeCache cache;
      publish_all(cache);
      const uint64_t lock_waits_before = cache.lock_waits();

      std::atomic<bool> go{false};
      std::atomic<int> readers_done{0};
      std::atomic<uint64_t> clears{0};
      std::vector<uint64_t> lookups(readers, 0);
      std::vector<uint64_t> hits(readers, 0);
      std::vector<std::thread> threads;
      threads.reserve(readers + 1);
      for (int t = 0; t < readers; t++) {
        threads.emplace_back([&, t] {
          while (!go.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          // An odd stride walks the keys in scrambled order. A churn reader
          // keeps reading until the writer has cleared twice, so its reads
          // overlap the churn.
          uint32_t cursor = static_cast<uint32_t>(t) * 2654435761u;
          while (lookups[t] < kLookupsPerReader ||
                 (churn && clears.load(std::memory_order_relaxed) < 2)) {
            cursor += 2654435761u;
            hits[t] += cache.Lookup(key_hash(cursor % kKeys), kFingerprint) != nullptr ? 1 : 0;
            lookups[t]++;
          }
          readers_done.fetch_add(1);
        });
      }
      if (churn) {
        threads.emplace_back([&] {
          while (!go.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          while (readers_done.load() < readers) {
            cache.Clear();
            clears.fetch_add(1, std::memory_order_relaxed);
            publish_all(cache);
          }
        });
      }
      go.store(true, std::memory_order_release);
      for (std::thread& t : threads) {
        t.join();
      }

      for (int t = 0; t < readers; t++) {
        EXPECT_GE(lookups[t], kLookupsPerReader) << "reader " << t;
        if (!churn) {
          EXPECT_EQ(hits[t], lookups[t]) << "reader " << t << " missed a warm key";
        }
      }
      EXPECT_EQ(cache.lock_waits() - lock_waits_before, 0u) << "a Lookup took a shard lock";
    }
  }
}

}  // namespace
}  // namespace nsf

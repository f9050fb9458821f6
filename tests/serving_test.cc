// Serving-mode engine: seeded arrival-process determinism (Poisson and
// bursty), deficit-round-robin fairness under asymmetric load and weights,
// admission-control shed accounting (queue-depth and p99-SLO), periodic
// run-history flushing, and an 8-worker open-loop smoke (the CI tsan job
// runs this whole suite).
#include "src/engine/serving.h"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/builder/builder.h"

namespace nsf {
namespace {

// Serving tests construct engines without an ambient disk tier; tests that
// want one set EngineConfig::cache_dir explicitly.
[[maybe_unused]] const bool kEnvScrubbed = [] {
  unsetenv("NSF_CACHE_DIR");
  unsetenv("NSF_CACHE_MAX_BYTES");
  return true;
}();

struct TempCacheDir {
  explicit TempCacheDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("nsf-serving-test-" + tag + "-" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
  }
  ~TempCacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

// A counting-loop workload: `iters` additions, deterministic result, cost
// controllable from the test.
WorkloadSpec LoopSpec(const std::string& name, int iters) {
  WorkloadSpec spec;
  spec.name = name;
  spec.build = [iters] {
    ModuleBuilder mb("loop");
    auto& f = mb.AddFunction("main", {}, {ValType::kI32});
    uint32_t acc = f.AddLocal(ValType::kI32);
    uint32_t i = f.AddLocal(ValType::kI32);
    f.ForI32(i, 0, iters, 1, [&] { f.LocalGet(acc).I32Const(1).I32Add().LocalSet(acc); });
    f.LocalGet(acc);
    return mb.Build();
  };
  return spec;
}

engine::RunRequest LoopRequest(const std::string& name, int iters) {
  engine::RunRequest request;
  request.spec = LoopSpec(name, iters);
  request.collect_outputs = false;
  return request;
}

// --- GenerateArrivals ---

TEST(Arrivals, PoissonIsDeterministicSortedAndInRange) {
  engine::ArrivalConfig config;
  config.kind = engine::ArrivalKind::kPoisson;
  config.rate_rps = 500;
  config.seed = 42;
  std::vector<double> a = engine::GenerateArrivals(config, 1.0);
  std::vector<double> b = engine::GenerateArrivals(config, 1.0);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // bit-identical replay from the seed
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_GE(a[i], 0.0);
    EXPECT_LT(a[i], 1.0);
    if (i > 0) {
      EXPECT_GE(a[i], a[i - 1]);
    }
  }
}

TEST(Arrivals, PoissonHitsTheConfiguredRate) {
  engine::ArrivalConfig config;
  config.rate_rps = 1000;
  config.seed = 7;
  std::vector<double> a = engine::GenerateArrivals(config, 1.0);
  // Poisson(1000): sd ~32, so +/-15% is a >4-sigma band.
  EXPECT_GT(a.size(), 850u);
  EXPECT_LT(a.size(), 1150u);
}

TEST(Arrivals, DistinctSeedsProduceDistinctSchedules) {
  engine::ArrivalConfig config;
  config.rate_rps = 200;
  config.seed = 1;
  std::vector<double> a = engine::GenerateArrivals(config, 1.0);
  config.seed = 2;
  std::vector<double> b = engine::GenerateArrivals(config, 1.0);
  EXPECT_NE(a, b);
}

TEST(Arrivals, BurstyConcentratesArrivalsInTheOnPhase) {
  engine::ArrivalConfig config;
  config.kind = engine::ArrivalKind::kBursty;
  config.rate_rps = 400;
  config.burst_factor = 4.0;
  config.burst_fraction = 0.25;  // 4 * 0.25 = 1: the off-phase rate is zero
  config.period_seconds = 0.2;
  config.seed = 9;
  std::vector<double> a = engine::GenerateArrivals(config, 2.0);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, engine::GenerateArrivals(config, 2.0));  // deterministic too
  double on_len = config.burst_fraction * config.period_seconds;
  for (double t : a) {
    double pos = std::fmod(t, config.period_seconds);
    EXPECT_LT(pos, on_len) << "arrival at " << t << " fell in the off-phase";
  }
  // The long-run mean still tracks rate_rps: ~800 expected over 2 seconds.
  EXPECT_GT(a.size(), 650u);
  EXPECT_LT(a.size(), 950u);
}

TEST(Arrivals, DegenerateConfigsAreEmpty) {
  engine::ArrivalConfig config;
  config.rate_rps = 0;
  EXPECT_TRUE(engine::GenerateArrivals(config, 1.0).empty());
  config.rate_rps = 100;
  EXPECT_TRUE(engine::GenerateArrivals(config, 0).empty());
}

// --- DrrQueue ---

engine::DrrItem Item(size_t tenant, double cost, uint64_t seq = 0) {
  engine::DrrItem item;
  item.tenant = tenant;
  item.cost = cost;
  item.seq = seq;
  return item;
}

TEST(Drr, EqualQuantaAlternateUnderAsymmetricBacklog) {
  // Tenant 0 floods 100 items; tenant 1 queues 10. Equal quanta and equal
  // costs must interleave them 1:1 until tenant 1 drains — the flooding
  // tenant cannot starve the polite one.
  engine::DrrQueue q({1.0, 1.0});
  for (int i = 0; i < 100; i++) {
    q.Push(Item(0, 1.0, i));
  }
  for (int i = 0; i < 10; i++) {
    q.Push(Item(1, 1.0, i));
  }
  size_t from_polite = 0;
  engine::DrrItem item;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(q.Pop(&item));
    from_polite += item.tenant == 1 ? 1 : 0;
  }
  EXPECT_EQ(from_polite, 10u);  // all of tenant 1 served within the first 20
  EXPECT_EQ(q.depth(1), 0u);
  EXPECT_EQ(q.depth(0), 90u);
}

TEST(Drr, ServiceShareTracksQuantaWeights) {
  // 2:1 quanta with equal costs and deep backlogs on both sides: the served
  // mix over any window converges to 2:1.
  engine::DrrQueue q({2.0, 1.0});
  for (int i = 0; i < 90; i++) {
    q.Push(Item(0, 1.0, i));
    q.Push(Item(1, 1.0, i));
  }
  size_t heavy = 0;
  size_t light = 0;
  engine::DrrItem item;
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(q.Pop(&item));
    (item.tenant == 0 ? heavy : light)++;
  }
  EXPECT_EQ(heavy, 20u);
  EXPECT_EQ(light, 10u);
}

TEST(Drr, ExpensiveItemsDoNotStarveTheCheapTenant) {
  // Tenant 0's items cost 10 quanta each; tenant 1's cost 1. Fairness is in
  // SERVED COST, not item count: tenant 1 keeps being served every rotation
  // while tenant 0 saves up its deficit.
  engine::DrrQueue q({1.0, 1.0});
  for (int i = 0; i < 5; i++) {
    q.Push(Item(0, 10.0, i));
  }
  for (int i = 0; i < 30; i++) {
    q.Push(Item(1, 1.0, i));
  }
  double cost_heavy = 0;
  double cost_cheap = 0;
  size_t cheap_count = 0;
  engine::DrrItem item;
  for (int i = 0; i < 22; i++) {
    ASSERT_TRUE(q.Pop(&item));
    if (item.tenant == 0) {
      cost_heavy += item.cost;
    } else {
      cost_cheap += item.cost;
      cheap_count++;
    }
  }
  EXPECT_GE(cheap_count, 9u);                         // never starved
  EXPECT_GE(cost_heavy, 10.0);                        // the big item does land
  EXPECT_LE(std::abs(cost_heavy - cost_cheap), 11.0);  // cost share ~equal
}

TEST(Drr, EmptyingAQueueForfeitsItsDeficit) {
  engine::DrrQueue q({2.0, 2.0});
  q.Push(Item(0, 1.0));
  q.Push(Item(1, 1.0));
  engine::DrrItem item;
  ASSERT_TRUE(q.Pop(&item));
  ASSERT_TRUE(q.Pop(&item));
  // Each tenant was credited 2 and spent 1, but both queues emptied: no
  // banked credit survives for the next burst.
  EXPECT_EQ(q.deficit(0), 0.0);
  EXPECT_EQ(q.deficit(1), 0.0);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.Pop(&item));
}

TEST(Drr, HugeFiniteCostIsServedBesideANormalTenant) {
  // A run_history line "1 1e300 x" loads as a 1e300 s observed mean, a
  // finite cost no number of 0.002 s quanta can be added up to: past about
  // 1e13 s, adding one quantum no longer changes the deficit at all. Each
  // Pop must still return, the normal tenant must keep its turns, and the
  // huge head must be served once it is the only backlog.
  engine::DrrQueue q({0.002, 0.002});
  q.Push(Item(0, 1e300, 0));
  for (int i = 0; i < 3; i++) {
    q.Push(Item(1, 0.05, i));
  }
  engine::DrrItem item;
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(q.Pop(&item));
    EXPECT_EQ(item.tenant, 1u);
    EXPECT_EQ(item.seq, static_cast<uint64_t>(i));
  }
  ASSERT_TRUE(q.Pop(&item));
  EXPECT_EQ(item.tenant, 0u);
  EXPECT_EQ(item.cost, 1e300);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.deficit(0), 0.0);
  EXPECT_FALSE(q.Pop(&item));
}

TEST(Drr, DrainAllEmptiesEveryQueue) {
  engine::DrrQueue q({1.0, 1.0, 1.0});
  for (int i = 0; i < 4; i++) {
    q.Push(Item(i % 3, 1.0, i));
  }
  EXPECT_EQ(q.total_depth(), 4u);
  std::vector<engine::DrrItem> leftovers = q.DrainAll();
  EXPECT_EQ(leftovers.size(), 4u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_depth(), 0u);
  engine::DrrItem item;
  EXPECT_FALSE(q.Pop(&item));
}

// --- ServingLoop ---

TEST(ServingLoop, SmokeAccountsEveryArrivalAtEightWorkers) {
  // Sampling plus the background tierer: 8 workers serve while the tierer
  // thread recompiles hot modules and hot-swaps them under their keys.
  engine::EngineConfig engine_config;
  engine_config.sample_period = 16;
  engine_config.background_tiering = true;
  engine::Engine eng(engine_config);
  engine::ServingConfig config;
  config.workers = 8;
  config.duration_seconds = 0.25;
  engine::ServingLoop loop(&eng, config);

  std::vector<engine::TenantConfig> tenants(2);
  tenants[0].name = "steady";
  tenants[0].mix.push_back(LoopRequest("serve_small", 1000));
  tenants[0].mix.push_back(LoopRequest("serve_medium", 20000));
  tenants[0].arrivals.kind = engine::ArrivalKind::kPoisson;
  tenants[0].arrivals.rate_rps = 120;
  tenants[0].arrivals.seed = 7;
  tenants[1].name = "spiky";
  tenants[1].mix.push_back(LoopRequest("serve_spiky", 5000));
  tenants[1].arrivals.kind = engine::ArrivalKind::kBursty;
  tenants[1].arrivals.rate_rps = 80;
  tenants[1].arrivals.seed = 11;

  engine::ServingReport report = loop.Run(tenants);
  EXPECT_TRUE(report.accounted());
  EXPECT_GT(report.offered, 0u);
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.goodput_rps, 0.0);
  EXPECT_GE(report.wall_seconds, report.duration_seconds * 0.5);
  ASSERT_EQ(report.tenants.size(), 2u);
  uint64_t cold_compiles = 0;
  for (const engine::TenantReport& t : report.tenants) {
    EXPECT_EQ(t.offered, t.admitted + t.shed()) << t.name;
    EXPECT_EQ(t.admitted, t.completed + t.failed + t.abandoned) << t.name;
    // Every completion recorded exactly one sample in each histogram.
    EXPECT_EQ(t.e2e_ns.count, t.completed + t.failed) << t.name;
    EXPECT_EQ(t.queue_ns.count, t.e2e_ns.count) << t.name;
    EXPECT_EQ(t.service_ns.count, t.e2e_ns.count) << t.name;
    EXPECT_LE(t.slowest.size(), loop.config().slowest_per_tenant) << t.name;
    cold_compiles += t.cold_compiles;
  }
  // The workload mixes are distinct, so somebody paid each backend compile.
  EXPECT_GT(cold_compiles, 0u);
  // serve_medium and serve_spiky cross the 64-sample threshold in one run
  // (>= 5000 back-edges at period 16), so the tierer warms up and swaps at
  // least one module.
  eng.DrainTierer();
  EXPECT_GE(eng.Stats().tier_warmups, 1u);
  EXPECT_GE(eng.Stats().tier_swaps, 1u);
}

// Below the knee nothing sheds. The first run pays the cold compiles; the
// identical rerun on the same loop pays no compile, compile join or disk
// load, and completes every request it was offered.
TEST(ServingLoop, WarmRerunBelowTheKneePaysNoColdEvents) {
  engine::Engine eng;
  engine::ServingConfig config;
  config.workers = 4;
  config.duration_seconds = 0.25;
  engine::ServingLoop loop(&eng, config);

  std::vector<engine::TenantConfig> tenants(2);
  tenants[0].name = "steady";
  tenants[0].mix.push_back(LoopRequest("rerun_small", 1000));
  tenants[0].mix.push_back(LoopRequest("rerun_medium", 5000));
  tenants[0].arrivals.kind = engine::ArrivalKind::kPoisson;
  tenants[0].arrivals.rate_rps = 40;
  tenants[0].arrivals.seed = 17;
  tenants[1].name = "spiky";
  tenants[1].weight = 2.0;
  tenants[1].mix.push_back(LoopRequest("rerun_spiky", 2000));
  tenants[1].arrivals.kind = engine::ArrivalKind::kBursty;
  tenants[1].arrivals.rate_rps = 20;
  tenants[1].arrivals.seed = 19;

  engine::ServingReport cold = loop.Run(tenants);
  engine::ServingReport warm = loop.Run(tenants);
  auto cold_events = [](const engine::ServingReport& r) {
    uint64_t n = 0;
    for (const engine::TenantReport& t : r.tenants) {
      n += t.cold_compiles + t.compile_joins + t.disk_loads;
    }
    return n;
  };
  for (const engine::ServingReport* r : {&cold, &warm}) {
    EXPECT_TRUE(r->accounted());
    EXPECT_GT(r->offered, 0u);
    EXPECT_EQ(r->shed, 0u);
    EXPECT_EQ(r->failed, 0u);
  }
  EXPECT_GT(cold_events(cold), 0u);
  EXPECT_EQ(cold_events(warm), 0u);
  EXPECT_GE(static_cast<double>(warm.completed), 0.95 * static_cast<double>(warm.offered));
  EXPECT_EQ(warm.completed, warm.offered);
}

TEST(ServingLoop, QueueDepthBoundShedsDeterministically) {
  engine::Engine eng;
  engine::ServingConfig config;
  config.workers = 1;
  config.duration_seconds = 0.1;
  engine::ServingLoop loop(&eng, config);

  engine::TenantConfig tenant;
  tenant.name = "capped";
  tenant.mix.push_back(LoopRequest("serve_capped", 1000));
  tenant.arrivals.rate_rps = 300;
  tenant.arrivals.seed = 3;
  tenant.max_queue_depth = 0;  // a zero bound fast-rejects every arrival

  engine::ServingReport report = loop.Run({tenant});
  EXPECT_TRUE(report.accounted());
  EXPECT_GT(report.offered, 0u);
  EXPECT_EQ(report.admitted, 0u);
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.tenants[0].shed_queue, report.offered);
  EXPECT_EQ(report.tenants[0].shed_slo, 0u);
  EXPECT_EQ(report.tenants[0].e2e_ns.count, 0u);  // sheds never reach a worker
}

TEST(ServingLoop, SloShedArmsAfterMinSamples) {
  engine::Engine eng;
  engine::ServingConfig config;
  config.workers = 2;
  config.duration_seconds = 0.5;
  config.slo_min_samples = 1;  // arm the p99 gate after the first completion
  engine::ServingLoop loop(&eng, config);

  engine::TenantConfig tenant;
  tenant.name = "tight";
  tenant.mix.push_back(LoopRequest("serve_tight", 1000));
  tenant.arrivals.rate_rps = 200;
  tenant.arrivals.seed = 5;
  tenant.p99_slo_seconds = 1e-9;  // any real completion violates the SLO

  engine::ServingReport report = loop.Run({tenant});
  EXPECT_TRUE(report.accounted());
  // Before the gate arms, requests are admitted and complete; after the
  // first completion every later arrival is fast-rejected as an SLO shed.
  EXPECT_GT(report.completed, 0u);
  EXPECT_GT(report.tenants[0].shed_slo, 0u);
  EXPECT_EQ(report.tenants[0].shed_queue, 0u);
}

TEST(ServingLoop, PeriodicallyFlushesRunHistoryWithoutDestruction) {
  TempCacheDir dir("flush");
  engine::EngineConfig econfig;
  econfig.cache_dir = dir.path;
  engine::Engine eng(econfig);
  engine::ServingConfig config;
  config.workers = 2;
  config.duration_seconds = 0.3;
  config.flush_period_seconds = 0.05;
  engine::ServingLoop loop(&eng, config);

  engine::TenantConfig tenant;
  tenant.name = "durable";
  tenant.mix.push_back(LoopRequest("serve_durable", 2000));
  tenant.arrivals.rate_rps = 100;
  tenant.arrivals.seed = 13;

  engine::ServingReport report = loop.Run({tenant});
  EXPECT_TRUE(report.accounted());
  ASSERT_GT(report.completed, 0u);
  EXPECT_GE(report.history_flushes, 1u);
  // The observations are already durable while the engine is still alive —
  // a later crash loses nothing this loop learned.
  ASSERT_TRUE(std::filesystem::exists(eng.RunHistoryPath()));
  engine::RunHistory fresh;
  EXPECT_TRUE(fresh.Load(eng.RunHistoryPath()));
  EXPECT_GT(fresh.ObservedRuns("serve_durable"), 0u);
}

}  // namespace
}  // namespace nsf

// Telemetry subsystem: histogram bucket math and percentile accuracy against
// exact quantiles, multi-threaded counter/histogram/span recording (the
// whole suite runs under the CI tsan job), Chrome trace-event JSON
// well-formedness, and the differential guarantee that the dispatch-stats
// instrumentation leaves PerfCounters bit-identical.
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

#include <algorithm>
#include <cstdlib>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/builder/builder.h"
#include "src/engine/engine.h"
#include "src/engine/executor.h"
#include "src/machine/decode.h"

namespace nsf {
namespace {

TEST(Histogram, ExactBucketsBelowTheLogRange) {
  // Values below 2*kSubCount land in exact buckets and report themselves.
  for (uint64_t v = 0; v < 2 * telemetry::Histogram::kSubCount; v++) {
    EXPECT_EQ(telemetry::Histogram::BucketFor(v), v);
    EXPECT_EQ(telemetry::Histogram::BucketMidpoint(static_cast<uint32_t>(v)), v);
  }
}

TEST(Histogram, BucketMappingIsMonotoneAndMidpointsLandInTheirBucket) {
  // Probe octave boundaries and interior points across the full range.
  std::vector<uint64_t> probes;
  for (int shift = 0; shift < 63; shift++) {
    uint64_t base = uint64_t{1} << shift;
    probes.push_back(base);
    probes.push_back(base + base / 3);
    probes.push_back(base * 2 - 1);
  }
  probes.push_back(UINT64_MAX);
  uint32_t prev_bucket = 0;
  for (size_t i = 0; i < probes.size(); i++) {
    uint32_t b = telemetry::Histogram::BucketFor(probes[i]);
    ASSERT_LT(b, telemetry::Histogram::kNumBuckets) << probes[i];
    if (i > 0) {
      EXPECT_GE(b, prev_bucket) << probes[i];
    }
    prev_bucket = b;
    // The representative value maps back into the same bucket.
    EXPECT_EQ(telemetry::Histogram::BucketFor(telemetry::Histogram::BucketMidpoint(b)), b)
        << probes[i];
  }
}

TEST(Histogram, PercentilesTrackExactQuantilesWithinBucketError) {
  // Log-normal-ish latencies: exercise several octaves at once.
  telemetry::MetricsRegistry reg;  // private registry: no other writer
  telemetry::Histogram& h = *reg.GetHistogram("quantiles");
  std::mt19937_64 rng(42);
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; i++) {
    double ln = std::exp(10.0 + 2.5 * std::normal_distribution<double>()(rng));
    uint64_t v = static_cast<uint64_t>(ln);
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(h.count(), values.size());
  EXPECT_EQ(h.min(), values.front());
  EXPECT_EQ(h.max(), values.back());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    uint64_t exact =
        values[std::min(values.size() - 1,
                        static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) -
                            1)];
    uint64_t approx = h.Percentile(q);
    // Bound: one sub-bucket of relative error (12.5% at kSubBits=3), plus
    // the midpoint sitting half a bucket from either edge.
    double rel_err = std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
                     static_cast<double>(exact);
    EXPECT_LE(rel_err, 1.0 / telemetry::Histogram::kSubCount) << "q=" << q;
  }
}

TEST(Histogram, SmallExactDistributionsReportExactPercentiles) {
  telemetry::MetricsRegistry reg;
  telemetry::Histogram& h = *reg.GetHistogram("exact");
  for (uint64_t v = 1; v <= 10; v++) {
    h.Record(v);  // values < 16: exact buckets
  }
  EXPECT_EQ(h.Percentile(0.5), 5u);
  EXPECT_EQ(h.Percentile(0.1), 1u);
  EXPECT_EQ(h.Percentile(1.0), 10u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10u);
  EXPECT_EQ(h.sum(), 55u);
}

TEST(Histogram, EmptyReportsZeros) {
  telemetry::MetricsRegistry reg;
  const telemetry::Histogram& h = *reg.GetHistogram("empty");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Registry, NamesRegisterOneKindAndPointersAreStable) {
  telemetry::MetricsRegistry reg;  // private registry: full control
  telemetry::Counter* c = reg.GetCounter("k");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reg.GetCounter("k"), c);           // register-or-get
  EXPECT_EQ(reg.GetGauge("k"), nullptr);       // cross-kind conflict
  EXPECT_EQ(reg.GetHistogram("k"), nullptr);
  c->Add(3);
  EXPECT_EQ(reg.GetCounter("k")->value(), 3u);  // same instrument, same count
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, DumpJsonIsWellFormedAndCarriesValues) {
  telemetry::MetricsRegistry reg;
  reg.GetCounter("a.count")->Add(7);
  reg.GetGauge("b.gauge")->Set(2.5);
  telemetry::Histogram* h = reg.GetHistogram("c.hist");
  h->Record(4);
  h->Record(8);
  std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"a.count\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b.gauge\":2.500000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"c.hist\":{\"count\":2,\"sum\":12,\"min\":4,\"max\":8"),
            std::string::npos)
      << json;
  // Braces balance (cheap well-formedness check; CI also runs the real
  // parser over bench output via python -m json.tool).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Registry, ConcurrentRecordingLosesNothing) {
  telemetry::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&reg] {
      // Register-or-get from every thread: exercises the registration lock.
      telemetry::Counter* c = reg.GetCounter("mt.count");
      telemetry::Histogram* h = reg.GetHistogram("mt.hist");
      for (int i = 0; i < kPerThread; i++) {
        c->Add();
        h->Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(reg.GetCounter("mt.count")->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.GetHistogram("mt.hist")->count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// --- Span tracing ---

TEST(Trace, DisabledSpansRecordNothing) {
  telemetry::TraceRecorder& rec = telemetry::TraceRecorder::Global();
  rec.Stop();
  rec.Clear();
  uint64_t before = rec.recorded();
  {
    telemetry::Span span("noop", "test");
    span.arg("k", uint64_t{1});
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(rec.recorded(), before);
}

TEST(Trace, SpansLandInTheDumpWithArgsAndThreadNames) {
  telemetry::TraceRecorder& rec = telemetry::TraceRecorder::Global();
  rec.Clear();
  rec.Start("");  // record in memory only
  rec.SetThreadName("main-test-thread");
  {
    telemetry::Span span("unit-span", "test");
    EXPECT_TRUE(span.active());
    span.arg("workload", std::string("tri\"solv"));  // quote needs escaping
    span.arg("count", uint64_t{42});
    span.arg("ratio", 1.5);
  }
  rec.Stop();
  std::string json = rec.DumpJson();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit-span\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\":\"tri\\\"solv\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":42"), std::string::npos);
  EXPECT_NE(json.find("main-test-thread"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  rec.Clear();
}

TEST(Trace, ConcurrentSpansAllRecordedOnDistinctLanes) {
  telemetry::TraceRecorder& rec = telemetry::TraceRecorder::Global();
  rec.Clear();
  rec.Start("");
  uint64_t before = rec.recorded();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; i++) {
        telemetry::Span span("mt-span", "test");
        span.arg("i", static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  rec.Stop();
  EXPECT_EQ(rec.recorded() - before, static_cast<uint64_t>(kThreads) * kPerThread);
  rec.Clear();
}

// The ring-capacity overflow path, via the global recorder restarted with a
// tiny ring (TraceRecorder is a process singleton).
TEST(Trace, TinyRingOverwritesOldestEventsAndCountsDropped) {
  telemetry::TraceRecorder& rec = telemetry::TraceRecorder::Global();
  rec.Clear();
  rec.Start("", /*ring_capacity=*/4);
  for (int i = 0; i < 10; i++) {
    telemetry::Span span("ring-span", "test");
    span.arg("i", static_cast<uint64_t>(i));
  }
  rec.Stop();
  std::string json = rec.DumpJson();
  EXPECT_EQ(json.find("\"i\":0"), std::string::npos) << json;  // oldest gone
  EXPECT_NE(json.find("\"i\":9"), std::string::npos) << json;  // newest kept
  EXPECT_GE(rec.dropped(), 6u);
  rec.Clear();
  rec.Start("", telemetry::TraceRecorder::kDefaultRingCapacity);
  rec.Stop();
}

// --- Dispatch stats: PerfCounters must be bit-identical regardless of the
// NSF_DISPATCH_STATS build setting. Differential across dispatch modes in
// THIS binary: the legacy interpreter never runs the counting prologue, so
// if the instrumentation perturbed anything the modes would diverge. (CI
// builds this same test with -DNSF_DISPATCH_STATS=ON; a counters diff in
// either build fails here.)

// sum_squares(n): the quickstart kernel — small, pure, deterministic.
Module SumSquaresModule() {
  ModuleBuilder mb("telemetry_sum_squares");
  auto& f = mb.AddFunction("sum_squares", {ValType::kI32}, {ValType::kI32});
  uint32_t acc = f.AddLocal(ValType::kI32);
  uint32_t i = f.AddLocal(ValType::kI32);
  f.I32Const(0).LocalSet(acc);
  f.ForI32Dyn(i, 1, 0, 1, [&] {
    f.LocalGet(acc).LocalGet(i).LocalGet(i).I32Mul().I32Add().LocalSet(acc);
  });
  f.LocalGet(acc);
  return mb.Build();
}

// Hermetic: no disk tier, no run-history I/O, regardless of ambient
// NSF_CACHE_DIR (this test binary does not scrub the environment).
engine::EngineConfig HermeticConfig() {
  engine::EngineConfig config;
  config.cache_dir = "";
  return config;
}

TEST(DispatchStats, PerfCountersBitIdenticalAcrossDispatchModes) {
  engine::Engine eng(HermeticConfig());
  engine::CompiledModuleRef code = eng.Compile(SumSquaresModule(), CodegenOptions::ChromeV8());
  ASSERT_TRUE(code->ok) << code->error;
  engine::Session session(&eng);

  auto run = [&](SimDispatch dispatch) {
    engine::InstanceOptions opts;
    opts.entry = "sum_squares";
    opts.dispatch = dispatch;
    std::string err;
    auto inst = session.Instantiate(code, opts, &err);
    EXPECT_NE(inst, nullptr) << err;
    engine::RunOutcome out = inst->RunExport("sum_squares", {200});
    EXPECT_TRUE(out.ok) << out.error;
    return out;
  };

  engine::RunOutcome legacy = run(SimDispatch::kLegacy);
  engine::RunOutcome pred = run(SimDispatch::kPredecoded);
  EXPECT_TRUE(legacy.counters == pred.counters)
      << "dispatch instrumentation must not move a single counter";
  EXPECT_EQ(legacy.exit_code, pred.exit_code);
}

TEST(DispatchStats, SnapshotMatchesBuildFlag) {
  if (!DispatchStatsEnabled()) {
    // Default build: the table is compiled out and always empty.
    EXPECT_TRUE(DispatchStatsSnapshot().empty());
    return;
  }
  // Profiling build: run something, then the table must have counts sorted
  // descending, and Reset must clear it.
  ResetDispatchStats();
  engine::Engine eng(HermeticConfig());
  engine::CompiledModuleRef code = eng.Compile(SumSquaresModule(), CodegenOptions::ChromeV8());
  ASSERT_TRUE(code->ok) << code->error;
  engine::Session session(&eng);
  engine::InstanceOptions opts;
  opts.entry = "sum_squares";
  opts.dispatch = SimDispatch::kPredecoded;  // the counting path
  std::string err;
  auto inst = session.Instantiate(code, opts, &err);
  ASSERT_NE(inst, nullptr) << err;
  engine::RunOutcome out = inst->RunExport("sum_squares", {100});
  ASSERT_TRUE(out.ok) << out.error;

  std::vector<DispatchStat> stats = DispatchStatsSnapshot();
  ASSERT_FALSE(stats.empty());
  uint64_t total = 0;
  for (size_t i = 0; i < stats.size(); i++) {
    EXPECT_GT(stats[i].retires, 0u);
    EXPECT_STRNE(stats[i].name, "?");
    if (i > 0) {
      EXPECT_GE(stats[i - 1].retires, stats[i].retires) << "sorted descending";
    }
    total += stats[i].retires;
  }
  // Every retired instruction dispatched exactly one handler record; fused
  // pairs retire two instructions on one record, so dispatches <= retires.
  EXPECT_LE(total, out.counters.instructions_retired);
  EXPECT_GT(total, 0u);
  ResetDispatchStats();
  EXPECT_TRUE(DispatchStatsSnapshot().empty());
}

// A pool worker names its lane when its thread starts. A recorder started
// later (nsfbench --traced starts it after its batch pool exists) must still
// show that name on the lane.
TEST(Trace, WorkerStartedBeforeTracingKeepsItsLaneName) {
  telemetry::TraceRecorder& rec = telemetry::TraceRecorder::Global();
  rec.Stop();
  rec.Clear();
  engine::Engine eng(HermeticConfig());
  engine::RunRequest request;
  request.spec.name = "lane_name";
  request.spec.build = [] {
    ModuleBuilder mb("lane_name");
    mb.AddFunction("main", {}, {ValType::kI32}).I32Const(0);
    return mb.Build();
  };
  request.collect_outputs = false;
  engine::ExecutorPool pool(&eng, 1);
  // Tracing is off, and the worker has certainly started once a run returns.
  ASSERT_TRUE(pool.Run({request}).all_ok());
  rec.Start("");
  ASSERT_TRUE(pool.Run({request}).all_ok());
  rec.Stop();
  std::string json = rec.DumpJson();
  EXPECT_NE(json.find("\"args\":{\"name\":\"worker-0\"}"), std::string::npos) << json;
  rec.Clear();
}

}  // namespace
}  // namespace nsf

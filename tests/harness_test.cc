// Harness behaviors: stats helpers, validation caching, render helpers, and
// the harness's thin-layer contract over the Engine (compile-once-run-many).
#include "src/harness/harness.h"

#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/polybench/polybench.h"

namespace nsf {
namespace {

TEST(Stats, GeoMeanAndMedian) {
  EXPECT_DOUBLE_EQ(GeoMean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(GeoMean({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(GeoMean({}), 0.0);
}

TEST(Render, TableAlignsColumns) {
  std::string t = RenderTable({{"name", "value"}, {"x", "12345"}});
  EXPECT_NE(t.find("name"), std::string::npos);
  EXPECT_NE(t.find("-----"), std::string::npos);
  EXPECT_NE(t.find("12345"), std::string::npos);
}

TEST(Render, BarsScaleToWidth) {
  std::string b = RenderBars({{"one", 1.0}, {"two", 2.0}}, 1.0, "x", 10);
  EXPECT_NE(b.find("##########"), std::string::npos);  // max bar is full width
}

TEST(Harness, ValidationDetectsMismatch) {
  // A spec whose output depends on the profile name would fail validation;
  // the real specs must pass. Just verify the reference cache path works.
  BenchHarness h;
  WorkloadSpec spec = PolybenchSpec("gemm");
  RunResult r1 = h.MeasureValidated(spec, CodegenOptions::ChromeV8());
  EXPECT_TRUE(r1.validated);
  RunResult r2 = h.MeasureValidated(spec, CodegenOptions::FirefoxSM());
  EXPECT_TRUE(r2.validated);
}

TEST(Harness, RepeatedMeasureHitsTheCodeCache) {
  BenchHarness h;
  WorkloadSpec spec = PolybenchSpec("gemm");
  RunResult first = h.Measure(spec, CodegenOptions::ChromeV8());
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  RunResult second = h.Measure(spec, CodegenOptions::ChromeV8());
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cache_hit);
  // Identical compiled code -> identical deterministic execution.
  EXPECT_EQ(second.counters.cycles(), first.counters.cycles());
  engine::EngineStats stats = h.engine().Stats();
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(Harness, SharedEngineAggregatesAcrossHarnesses) {
  engine::Engine eng;
  BenchHarness a(&eng);
  BenchHarness b(&eng);
  WorkloadSpec spec = PolybenchSpec("trisolv");
  ASSERT_TRUE(a.Measure(spec, CodegenOptions::FirefoxSM()).ok);
  // Same (module, options) from another harness: served from the shared cache.
  RunResult r = b.Measure(spec, CodegenOptions::FirefoxSM());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(eng.Stats().compiles, 1u);
}

TEST(Harness, CountersPopulated) {
  BenchHarness h;
  RunResult r = h.Measure(PolybenchSpec("gemm"), CodegenOptions::ChromeV8());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.counters.instructions_retired, 0u);
  EXPECT_GT(r.counters.cycles(), 0u);
  EXPECT_GT(r.counters.loads_retired, 0u);
  EXPECT_GT(r.counters.stores_retired, 0u);
  EXPECT_GT(r.counters.branches_retired, 0u);
  EXPECT_GT(r.counters.cond_branches_retired, 0u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.compile.minstrs, 0u);
  EXPECT_GT(r.compile.code_bytes, 0u);
}

}  // namespace
}  // namespace nsf

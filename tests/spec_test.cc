// SPEC-like workload validation: every benchmark compiles, runs under the
// JIT profiles, and produces byte-identical output to the native reference.
#include "src/spec/spec.h"

#include <gtest/gtest.h>

#include "src/engine/executor.h"
#include "src/support/str.h"

namespace nsf {
namespace {

// One run of `spec` under `options` on a fresh engine, outputs read back.
engine::BatchRunResult RunOnce(const WorkloadSpec& spec, const CodegenOptions& options) {
  engine::Engine eng;
  engine::Session session(&eng);
  return engine::ExecuteRequest(&session, {spec, options}, 0, 0, 0);
}

class SpecTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SpecTest, ValidatesAcrossProfiles) {
  WorkloadSpec spec = SpecWorkload(GetParam());
  ASSERT_TRUE(static_cast<bool>(spec.build)) << "unknown workload";
  engine::BatchRunResult reference = RunOnce(spec, CodegenOptions::NativeClang());
  ASSERT_TRUE(reference.ok) << spec.name << ": " << reference.error;
  for (const auto& opts : {CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM()}) {
    engine::BatchRunResult r = RunOnce(spec, opts);
    ASSERT_TRUE(r.ok) << spec.name << " under " << opts.profile_name << ": " << r.error;
    EXPECT_EQ(r.outputs, reference.outputs) << spec.name << " under " << opts.profile_name;
    // Must be a real workload (not an empty stub) and exercise syscalls.
    EXPECT_GT(r.outcome.counters.instructions_retired, 100000u) << spec.name;
    EXPECT_GT(r.outcome.syscalls, 0u) << spec.name;
  }
}

TEST_P(SpecTest, NativeOutputNonTrivial) {
  WorkloadSpec spec = SpecWorkload(GetParam());
  engine::BatchRunResult r = RunOnce(spec, CodegenOptions::NativeClang());
  ASSERT_TRUE(r.ok) << spec.name << ": " << r.error;
  ASSERT_FALSE(r.outputs.empty());
  EXPECT_FALSE(r.outputs[0].second.empty()) << spec.name << " produced no output";
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SpecTest, ::testing::ValuesIn(SpecWorkloadNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '.' || ch == '-') {
                               ch = '_';
                             }
                           }
                           return name;
                         });

TEST(SpecSuite, JitSlowerInAggregate) {
  // The paper's headline: Wasm runs slower than native on SPEC-class code.
  std::vector<double> ratios;
  for (const char* name : {"429.mcf", "458.sjeng", "444.namd"}) {
    WorkloadSpec spec = SpecWorkload(name);
    engine::BatchRunResult native = RunOnce(spec, CodegenOptions::NativeClang());
    engine::BatchRunResult chrome = RunOnce(spec, CodegenOptions::ChromeV8());
    ASSERT_TRUE(native.ok) << name << ": " << native.error;
    ASSERT_TRUE(chrome.ok) << name << ": " << chrome.error;
    ratios.push_back(chrome.outcome.seconds / native.outcome.seconds);
  }
  EXPECT_GT(GeoMean(ratios), 1.1);
}

}  // namespace
}  // namespace nsf

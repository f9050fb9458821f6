// PolyBench kernel correctness: every kernel validates (native vs JIT
// outputs match byte-for-byte), a sample of kernels is checked against
// straightforward C++ reference computations, and the matmul case study
// checksum is verified exactly.
#include "src/polybench/polybench.h"

#include <gtest/gtest.h>

#include <cmath>

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

class PolybenchTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PolybenchTest, ValidatesAcrossProfiles) {
  WorkloadSpec spec = PolybenchSpec(GetParam());
  engine::BatchRunResult reference = RunOnce(spec, CodegenOptions::NativeClang());
  ASSERT_TRUE(reference.ok) << spec.name << ": " << reference.error;
  for (const auto& opts : {CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM()}) {
    engine::BatchRunResult r = RunOnce(spec, opts);
    ASSERT_TRUE(r.ok) << spec.name << " under " << opts.profile_name << ": " << r.error;
    EXPECT_EQ(r.outputs, reference.outputs) << spec.name << " under " << opts.profile_name;
    EXPECT_GT(r.outcome.counters.instructions_retired, 1000u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, PolybenchTest,
                         ::testing::ValuesIn(PolybenchKernelNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') {
                               ch = '_';
                             }
                           }
                           return name;
                         });

// C++ reference for the deterministic init pattern.
double InitVal(int i, int j, int ka, int kb, int seed, int mod = 97) {
  int v = (i * ka + j * kb + seed) % mod + mod + 1;
  return static_cast<double>(v) / (2 * mod + 2);
}

std::string FormatChecksum(double sum) {
  // Mirrors lib_print_f64 with 4 decimals.
  bool neg = sum < 0;
  double v = std::fabs(sum);
  long long ip = static_cast<long long>(std::floor(v));
  long long frac = static_cast<long long>(std::floor((v - std::floor(v)) * 10000 + 0.5));
  if (frac >= 10000) {
    ip++;
    frac = 0;
  }
  return StrFormat("%s%lld.%04lld\n", neg ? "-" : "", ip, frac);
}

TEST(PolybenchReference, GemmChecksumMatchesCpp) {
  const int n = 36;
  std::vector<double> A(n * n);
  std::vector<double> B(n * n);
  std::vector<double> C(n * n);
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      A[i * n + j] = InitVal(i, j, 3, 7, 11);
      B[i * n + j] = InitVal(i, j, 5, 2, 13);
      C[i * n + j] = InitVal(i, j, 1, 9, 17);
    }
  }
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      C[i * n + j] *= 0.75;
    }
    for (int k = 0; k < n; k++) {
      for (int j = 0; j < n; j++) {
        C[i * n + j] += 1.25 * A[i * n + k] * B[k * n + j];
      }
    }
  }
  double sum = 0;
  for (double v : C) {
    sum += v;
  }
  engine::BatchRunResult r = RunOnce(PolybenchSpec("gemm"), CodegenOptions::NativeClang());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(std::string(r.outputs[0].second.begin(), r.outputs[0].second.end()),
            FormatChecksum(sum));
}

TEST(PolybenchReference, TrisolvChecksumMatchesCpp) {
  const int n = 150;
  std::vector<double> L(n * n);
  std::vector<double> b(n);
  std::vector<double> x(n);
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      L[i * n + j] = InitVal(i, j, 3, 7, 1);
    }
    L[i * n + i] += 2.0 * n;
    b[i] = InitVal(i, 0, 5, 1, 2);
  }
  for (int i = 0; i < n; i++) {
    x[i] = b[i];
    for (int j = 0; j < i; j++) {
      x[i] -= L[i * n + j] * x[j];
    }
    x[i] /= L[i * n + i];
  }
  double sum = 0;
  for (double v : x) {
    sum += v;
  }
  engine::BatchRunResult r = RunOnce(PolybenchSpec("trisolv"), CodegenOptions::NativeClang());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(std::string(r.outputs[0].second.begin(), r.outputs[0].second.end()),
            FormatChecksum(sum));
}

TEST(PolybenchReference, MvtChecksumMatchesCpp) {
  const int n = 110;
  std::vector<double> A(n * n);
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<double> y1(n);
  std::vector<double> y2(n);
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      A[i * n + j] = InitVal(i, j, 3, 7, 1);
    }
    x1[i] = InitVal(i, 0, 5, 1, 2);
    x2[i] = InitVal(i, 0, 2, 1, 3);
    y1[i] = InitVal(i, 0, 7, 1, 4);
    y2[i] = InitVal(i, 0, 3, 1, 5);
  }
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      x1[i] += A[i * n + j] * y1[j];
    }
  }
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      x2[i] += A[j * n + i] * y2[j];
    }
  }
  double sum = 0;
  for (int i = 0; i < n; i++) {
    sum += x1[i] + x2[i];
  }
  engine::BatchRunResult r = RunOnce(PolybenchSpec("mvt"), CodegenOptions::NativeClang());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(std::string(r.outputs[0].second.begin(), r.outputs[0].second.end()),
            FormatChecksum(sum));
}

TEST(Matmul, ChecksumMatchesCpp) {
  const int n = 24;
  std::vector<int32_t> A(n * n);
  std::vector<int32_t> B(n * n);
  std::vector<int64_t> C(n * n, 0);
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      A[i * n + j] = (i * 3 + j) % 101;
      B[i * n + j] = (i * 7 + j * 5) % 103;
    }
  }
  for (int i = 0; i < n; i++) {
    for (int k = 0; k < n; k++) {
      for (int j = 0; j < n; j++) {
        C[i * n + j] += static_cast<int64_t>(A[i * n + k]) * B[k * n + j];
      }
    }
  }
  int32_t sum = 0;
  for (int64_t v : C) {
    sum += static_cast<int32_t>(v);
  }
  engine::BatchRunResult r = RunOnce(MatmulSpec(n), CodegenOptions::NativeClang());
  ASSERT_TRUE(r.ok) << r.error;
  std::string out(r.outputs[0].second.begin(), r.outputs[0].second.end());
  EXPECT_EQ(out, StrFormat("%d\n0.0000\n", sum));
  // And the JIT profiles agree.
  engine::BatchRunResult rc = RunOnce(MatmulSpec(n), CodegenOptions::ChromeV8());
  ASSERT_TRUE(rc.ok) << rc.error;
  EXPECT_EQ(rc.outputs, r.outputs);
}

TEST(Matmul, JitSlowdownInExpectedBand) {
  // Figure 8's claim at small sizes: Wasm 2.0-3.4x slower than native for
  // matmul. Our band is looser but must show a clear slowdown.
  engine::BatchRunResult native = RunOnce(MatmulSpec(48), CodegenOptions::NativeClang());
  engine::BatchRunResult chrome = RunOnce(MatmulSpec(48), CodegenOptions::ChromeV8());
  ASSERT_TRUE(native.ok && chrome.ok);
  double ratio = chrome.outcome.seconds / native.outcome.seconds;
  EXPECT_GT(ratio, 1.2) << "chrome should be clearly slower on matmul";
  EXPECT_LT(ratio, 5.0);
}

}  // namespace
}  // namespace nsf

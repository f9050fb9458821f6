#include "src/harness/harness.h"

#include <algorithm>
#include <cmath>

#include "src/engine/executor.h"
#include "src/support/str.h"

namespace nsf {

double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) {
    return 0;
  }
  double log_sum = 0;
  for (double x : xs) {
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double Median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0;
  }
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

BenchHarness::BenchHarness()
    : owned_engine_(std::make_unique<engine::Engine>()), engine_(owned_engine_.get()) {}

BenchHarness::BenchHarness(engine::Engine* engine) : engine_(engine) {}

namespace {

// Converts an engine-level batch run into the harness's RunResult shape.
RunResult FromBatchRun(const engine::BatchRunResult& run) {
  RunResult r;
  r.ok = run.ok;
  r.error = run.error;
  r.cache_hit = run.cache_hit;
  r.compile = run.compile;
  if (run.ok) {
    r.counters = run.outcome.counters;
    r.seconds = run.outcome.seconds;
    r.browsix_seconds = run.outcome.browsix_seconds;
    r.syscalls = run.outcome.syscalls;
    r.outputs = run.outputs;
  }
  return r;
}

}  // namespace

RunResult BenchHarness::Measure(const WorkloadSpec& spec, const CodegenOptions& options) {
  // One run through the engine-level pipeline (the same ExecuteRequest the
  // batch path uses) on a throwaway single-use Session.
  engine::RunRequest request;
  request.spec = spec;
  request.options = options;
  engine::Session session(engine_);
  return FromBatchRun(
      engine::ExecuteRequest(&session, request, 0, 0, 0, /*reset_first=*/false));
}

const BenchHarness::Outputs* BenchHarness::EnsureReference(const WorkloadSpec& spec,
                                                           std::string* error) {
  // Reference outputs come from the native profile (SPEC's reference run).
  // The lock spans the reference run so concurrent callers compute it once;
  // map nodes are stable, so returned pointers survive later insertions.
  std::lock_guard<std::mutex> lock(reference_mu_);
  auto it = reference_outputs_.find(spec.name);
  if (it == reference_outputs_.end()) {
    RunResult ref = Measure(spec, CodegenOptions::NativeClang());
    if (!ref.ok) {
      *error = "reference run failed: " + ref.error;
      return nullptr;
    }
    it = reference_outputs_.emplace(spec.name, std::move(ref.outputs)).first;
  }
  return &it->second;
}

namespace {

// cmp `outputs` against the reference bytes, path by path.
bool OutputsMatch(const std::vector<std::pair<std::string, std::vector<uint8_t>>>& outputs,
                  const std::vector<std::pair<std::string, std::vector<uint8_t>>>& reference) {
  if (outputs.size() != reference.size()) {
    return false;
  }
  for (size_t i = 0; i < outputs.size(); i++) {
    if (outputs[i].first != reference[i].first || outputs[i].second != reference[i].second) {
      return false;
    }
  }
  return true;
}

}  // namespace

RunResult BenchHarness::MeasureValidated(const WorkloadSpec& spec,
                                         const CodegenOptions& options) {
  std::string ref_error;
  const Outputs* reference = EnsureReference(spec, &ref_error);
  if (reference == nullptr) {
    RunResult fail;
    fail.error = ref_error;
    return fail;
  }
  RunResult r = Measure(spec, options);
  if (!r.ok) {
    return r;
  }
  r.validated = OutputsMatch(r.outputs, *reference);
  if (!r.validated) {
    r.error = spec.name + ": output mismatch vs reference";
  }
  return r;
}

std::string RenderTable(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) {
    return "";
  }
  std::vector<size_t> widths;
  for (const auto& row : rows) {
    if (widths.size() < row.size()) {
      widths.resize(row.size(), 0);
    }
    for (size_t c = 0; c < row.size(); c++) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (size_t r = 0; r < rows.size(); r++) {
    for (size_t c = 0; c < rows[r].size(); c++) {
      std::string cell = rows[r][c];
      cell.resize(widths[c], ' ');
      out += cell;
      if (c + 1 != rows[r].size()) {
        out += "  ";
      }
    }
    out += "\n";
    if (r == 0) {
      for (size_t c = 0; c < widths.size(); c++) {
        out += std::string(widths[c], '-');
        if (c + 1 != widths.size()) {
          out += "  ";
        }
      }
      out += "\n";
    }
  }
  return out;
}

std::string RenderBars(const std::vector<std::pair<std::string, double>>& data,
                       double unit_value, const std::string& unit_label, int width) {
  double max_v = 0;
  size_t max_label = 0;
  for (const auto& [label, v] : data) {
    max_v = std::max(max_v, v);
    max_label = std::max(max_label, label.size());
  }
  if (max_v <= 0) {
    max_v = 1;
  }
  std::string out;
  for (const auto& [label, v] : data) {
    std::string padded = label;
    padded.resize(max_label, ' ');
    int bars = static_cast<int>(v / max_v * width + 0.5);
    out += StrFormat("%s |%s%s %.3f%s\n", padded.c_str(), std::string(bars, '#').c_str(),
                     std::string(width - bars, ' ').c_str(), v, unit_label.c_str());
  }
  if (unit_value > 0) {
    out += StrFormat("(reference line: %.2f%s)\n", unit_value, unit_label.c_str());
  }
  return out;
}

}  // namespace nsf

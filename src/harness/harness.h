// BROWSIX-SPEC: the benchmark harness — a thin statistics/validation layer
// over the embedder Engine (src/engine/). The harness no longer wires the
// pipeline itself: it compiles through the Engine's content-addressed code
// cache (so repeated reps and A/B ablations never recompile an identical
// (module, options) pair), runs through Session/Instance, captures
// performance counters, validates outputs (`cmp` against the native-profile
// reference, exactly as SPEC validates against reference outputs), and
// aggregates statistics for the paper's tables and figures.
#ifndef SRC_HARNESS_HARNESS_H_
#define SRC_HARNESS_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/codegen/codegen.h"
#include "src/engine/engine.h"
#include "src/engine/workload.h"
#include "src/machine/machine.h"

namespace nsf {

struct RunResult {
  bool ok = false;
  std::string error;
  PerfCounters counters;
  double seconds = 0;           // simulated wall clock (cycles / clock)
  double browsix_seconds = 0;   // time charged to the Browsix kernel
  uint64_t syscalls = 0;
  std::vector<std::pair<std::string, std::vector<uint8_t>>> outputs;
  CompileStats compile;
  bool cache_hit = false;       // compiled code came from the engine cache
  bool validated = false;       // outputs matched the reference run
};

double GeoMean(const std::vector<double>& xs);
double Median(std::vector<double> xs);

class BenchHarness {
 public:
  // Owns a private Engine.
  BenchHarness();
  // Shares `engine` (not owned) so several harnesses — or a bench binary and
  // its harness — aggregate one code cache and one stats block.
  explicit BenchHarness(engine::Engine* engine);

  // Executes `spec` once under `options` via Engine/Session/Instance. The
  // compile is served from the engine's code cache when an identical
  // (module, options) pair was compiled before. Counters cover only the
  // program's execution (compilation excluded), mirroring the paper's
  // measurement window.
  RunResult Measure(const WorkloadSpec& spec, const CodegenOptions& options);

  // Measure + output validation against the reference (native-profile) run.
  RunResult MeasureValidated(const WorkloadSpec& spec, const CodegenOptions& options);

  engine::Engine& engine() { return *engine_; }

 private:
  using Outputs = std::vector<std::pair<std::string, std::vector<uint8_t>>>;

  // Computes (or fetches) the cached reference outputs for `spec`. Returns
  // null and sets *error when the reference run fails. The returned pointer
  // stays valid for the harness's lifetime (node-stable map).
  const Outputs* EnsureReference(const WorkloadSpec& spec, std::string* error);

  std::unique_ptr<engine::Engine> owned_engine_;
  engine::Engine* engine_;
  std::mutex reference_mu_;  // guards reference_outputs_
  std::map<std::string, Outputs> reference_outputs_;
};

// --- Rendering helpers shared by the bench binaries ---

// Renders an aligned ASCII table; row 0 is the header.
std::string RenderTable(const std::vector<std::vector<std::string>>& rows);

// Renders a horizontal ASCII bar chart: one row per (label, value).
std::string RenderBars(const std::vector<std::pair<std::string, double>>& data, double unit_value,
                       const std::string& unit_label, int width = 48);

}  // namespace nsf

#endif  // SRC_HARNESS_HARNESS_H_

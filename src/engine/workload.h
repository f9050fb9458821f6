// WorkloadSpec: how to build a benchmark program's module, stage its input
// files, and which output files constitute its result. This is the unit the
// Engine compiles, a Session runs and the tiering layer profiles.
#ifndef SRC_ENGINE_WORKLOAD_H_
#define SRC_ENGINE_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/wasm/module.h"

namespace nsf {

class BrowsixKernel;

// A benchmark program: how to build its module, stage its inputs, and which
// output files constitute its result.
struct WorkloadSpec {
  std::string name;                         // e.g. "401.bzip2"
  std::function<Module()> build;            // builds the Wasm module
  std::function<void(BrowsixKernel&)> setup;  // stages input files
  std::vector<std::string> argv = {"prog"};
  std::string entry = "main";
  std::vector<std::string> output_files;    // validated via cmp
  uint64_t fuel = 0;                        // 0 = machine default cap
};

}  // namespace nsf

#endif  // SRC_ENGINE_WORKLOAD_H_

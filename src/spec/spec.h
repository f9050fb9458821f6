// The SPEC CPU stand-in suite: 15 open workloads, one per benchmark the
// paper measures (Table 1 / Figure 3b). Each workload exercises the same
// algorithmic regime as its SPEC counterpart (see DESIGN.md §3), performs
// real file I/O through the Browsix kernel, and writes a validated result
// file.
#ifndef SRC_SPEC_SPEC_H_
#define SRC_SPEC_SPEC_H_

#include <string>
#include <vector>

#include "src/engine/workload.h"

namespace nsf {

// Benchmark names in the paper's Table 1 order.
std::vector<std::string> SpecWorkloadNames();

// Builds the WorkloadSpec for `name`; `scale` >= 1 grows the input.
WorkloadSpec SpecWorkload(const std::string& name, int scale = 1);

}  // namespace nsf

#endif  // SRC_SPEC_SPEC_H_

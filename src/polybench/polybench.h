// The PolyBenchC suite (the 23 kernels of the paper's Figures 1 and 3a),
// written against the builder DSL, plus the §5 matmul case study.
//
// Every kernel module: stages no input files, runs the kernel over
// deterministically-initialized f64 arrays, writes a checksum line to
// /out.txt (validated byte-for-byte across toolchains), and returns 0.
//
// Sizes are scaled down from PolyBench MEDIUM so a simulated run finishes in
// ~10^7 instructions; `scale` multiplies the base dimensions for sweeps.
#ifndef SRC_POLYBENCH_POLYBENCH_H_
#define SRC_POLYBENCH_POLYBENCH_H_

#include <string>
#include <vector>

#include "src/engine/workload.h"

namespace nsf {

// The kernel names, in the paper's Figure 3a order.
std::vector<std::string> PolybenchKernelNames();

// Builds the WorkloadSpec for `name` (one of PolybenchKernelNames()).
// `scale` >= 1 multiplies problem dimensions.
WorkloadSpec PolybenchSpec(const std::string& name, int scale = 1);

// The §5 case study: int32 matmul C = A*B with NI=NJ=NK=n.
WorkloadSpec MatmulSpec(int n);

}  // namespace nsf

#endif  // SRC_POLYBENCH_POLYBENCH_H_

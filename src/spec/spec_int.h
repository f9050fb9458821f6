// Integer SPEC-like workload constructors (see spec.h for the registry).
#ifndef SRC_SPEC_SPEC_INT_H_
#define SRC_SPEC_SPEC_INT_H_

#include "src/engine/workload.h"

namespace nsf {

WorkloadSpec SpecBzip2(int scale);
WorkloadSpec SpecMcf(int scale);
WorkloadSpec SpecGobmk(int scale);
WorkloadSpec SpecSjeng(int scale);
WorkloadSpec SpecLibquantum(int scale);
WorkloadSpec SpecH264ref(int scale);
WorkloadSpec SpecAstar(int scale);
WorkloadSpec SpecLeela(int scale);

}  // namespace nsf

#endif  // SRC_SPEC_SPEC_INT_H_

// Floating-point SPEC-like workload constructors (see spec.h).
#ifndef SRC_SPEC_SPEC_FP_H_
#define SRC_SPEC_SPEC_FP_H_

#include "src/engine/workload.h"

namespace nsf {

WorkloadSpec SpecMilc(int scale);
WorkloadSpec SpecNamd(int scale);
WorkloadSpec SpecSoplex(int scale);
WorkloadSpec SpecPovray(int scale);
WorkloadSpec SpecLbm(int scale);
WorkloadSpec SpecSphinx3(int scale);
WorkloadSpec SpecNab(int scale);

}  // namespace nsf

#endif  // SRC_SPEC_SPEC_FP_H_

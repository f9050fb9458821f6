// Tier-up steps of the PGO subsystem: run a workload once under the
// instrumented reference interpreter (tier 0, the warm-up run), then turn the
// collected Profile into profile-guided codegen options (tier 1
// recompilation). Engine::TierUp is the one caller that caches and persists
// the profiles.
#ifndef SRC_PROFILE_TIER_H_
#define SRC_PROFILE_TIER_H_

#include <string>

#include "src/codegen/codegen.h"
#include "src/engine/workload.h"
#include "src/profile/profile.h"

namespace nsf {

// The warm-up run: executes `spec` once under the interpreter with Browsix
// syscalls bound (the same setup the machine path uses), collecting its
// profile into *out. Returns false and sets *error on failure, including a
// trap (a profile of a run that trapped is untrustworthy).
bool CollectProfile(const WorkloadSpec& spec, Profile* out, std::string* error);

// Returns `base` with `profile` attached, "+pgo" appended to its profile
// name, and every PGO transform on: hotness-ordered layout, hot-loop
// rotation and monomorphic devirtualization. The profile must outlive every
// compile using the result.
CodegenOptions PgoOptions(const CodegenOptions& base, const Profile* profile);

}  // namespace nsf

#endif  // SRC_PROFILE_TIER_H_

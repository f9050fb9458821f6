// Tier-up driver for the PGO subsystem: runs a workload once under the
// instrumented reference interpreter (tier 0, the warm-up run), then hands
// the collected Profile to profile-guided codegen (tier 1 recompilation).
#ifndef SRC_PROFILE_TIER_H_
#define SRC_PROFILE_TIER_H_

#include <map>
#include <string>

#include "src/codegen/codegen.h"
#include "src/engine/workload.h"
#include "src/profile/profile.h"

namespace nsf {

// Which PGO transforms the tier-up recompilation enables.
struct TierConfig {
  bool layout = true;            // CodegenOptions::pgo_layout
  bool rotate_hot_loops = true;  // CodegenOptions::pgo_rotate_hot_loops
  bool devirtualize = true;      // CodegenOptions::devirtualize_monomorphic
  uint64_t profile_fuel = 0;     // interpreter budget for the warm-up (0 = unlimited)
};

class TierManager {
 public:
  explicit TierManager(TierConfig config = TierConfig()) : config_(config) {}

  // The warm-up run: executes `spec` once under the interpreter with Browsix
  // syscalls bound (the same setup the machine path uses), collecting its
  // profile into *out. Returns false and sets *error on failure. const
  // because it mutates no manager state — callers that serialize cache
  // access themselves (engine::TieringPolicy) run Collect outside their lock.
  bool Collect(const WorkloadSpec& spec, Profile* out, std::string* error) const;

  // Caches `profile` under `name` and returns the pointer, which stays valid
  // for the TierManager's lifetime. If an entry already exists it is kept
  // and returned (first writer wins). Not synchronized.
  const Profile* Insert(const std::string& name, Profile profile);

  // The cached profile for `name`, or null. Pointer is node-stable.
  const Profile* CachedProfile(const std::string& name) const {
    auto it = cache_.find(name);
    return it == cache_.end() ? nullptr : &it->second;
  }

  // Returns `base` with PGO flags enabled per the config and `profile`
  // attached. The profile must outlive every compile using the result.
  CodegenOptions TierUp(const CodegenOptions& base, const Profile* profile) const;

 private:
  TierConfig config_;
  std::map<std::string, Profile> cache_;
};

}  // namespace nsf

#endif  // SRC_PROFILE_TIER_H_

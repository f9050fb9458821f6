// Profile data model for the PGO subsystem: per-function call/instruction
// counts, per-site loop-trip and branch-direction counts, and indirect-call
// target histograms, collected by an interpreter warm-up run and consumed by
// the compiler (see CodegenOptions::profile).
//
// Profile sites are keyed by *ordinal*: the n-th kLoop / {kIf,kBrIf} /
// kCallIndirect opcode in a function body, counted in body order. Both the
// interpreter (via ProfileCollector) and the lowering pass enumerate sites
// the same way, so no pc-level mapping has to survive compilation.
#ifndef SRC_PROFILE_PROFILE_H_
#define SRC_PROFILE_PROFILE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/wasm/module.h"

namespace nsf {

inline constexpr uint32_t kNoProfileSite = UINT32_MAX;

// One conditional-branch site (a Wasm `if` or `br_if`). For `br_if`, taken
// means the condition was non-zero; for `if`, taken means the condition was
// zero (matching the branch-to-else shape lowering emits), so in both cases
// `taken` counts executions of the emitted forward branch.
struct BranchSiteProfile {
  uint64_t taken = 0;
  uint64_t not_taken = 0;

  uint64_t total() const { return taken + not_taken; }
  bool operator==(const BranchSiteProfile&) const = default;
};

// One call_indirect site: histogram of table element indices invoked.
struct IndirectSiteProfile {
  std::map<uint32_t, uint64_t> targets;  // table element index -> call count

  uint64_t total() const;
  // True when a single element receives >= min_fraction of at least
  // min_calls calls; *elem is that element.
  bool Monomorphic(uint32_t* elem, double min_fraction = 0.95,
                   uint64_t min_calls = 16) const;
  bool operator==(const IndirectSiteProfile&) const = default;
};

struct FuncProfile {
  uint64_t entry_count = 0;    // times the function was entered
  uint64_t instrs_retired = 0; // Wasm instructions executed in this body (self)
  std::vector<uint64_t> loop_trips;            // back-edge executions per kLoop site
  std::vector<BranchSiteProfile> branches;     // per kIf/kBrIf site
  std::vector<IndirectSiteProfile> indirect_sites;  // per kCallIndirect site

  bool operator==(const FuncProfile&) const = default;
};

// A whole-module profile, indexed by joint (imports-first) function index.
class Profile {
 public:
  Profile() = default;
  explicit Profile(uint32_t num_funcs) : funcs_(num_funcs) {}
  // Sizes every per-site vector to match `module`'s bodies.
  static Profile ForModule(const Module& module);

  uint32_t num_funcs() const { return static_cast<uint32_t>(funcs_.size()); }
  FuncProfile& func(uint32_t joint_index) { return funcs_[joint_index]; }
  const FuncProfile& func(uint32_t joint_index) const { return funcs_[joint_index]; }
  const std::vector<FuncProfile>& funcs() const { return funcs_; }

  // Hotness weight used for code layout: self instructions plus a per-entry
  // charge (so frequently-called leaf stubs rank above never-run code).
  uint64_t Weight(uint32_t joint_index) const;

  // All function indices sorted hottest-first (ties broken by index, so the
  // order is deterministic).
  std::vector<uint32_t> FunctionsByHotness() const;

  // --- Serialization ---
  // Compact binary form (magic "NSFP", LEB128 payload). Round-trips
  // byte-identically: Serialize(Parse(Serialize(p))) == Serialize(p).
  std::vector<uint8_t> SerializeBinary() const;
  static bool ParseBinary(const std::vector<uint8_t>& bytes, Profile* out,
                          std::string* error);

  bool operator==(const Profile&) const = default;

 private:
  std::vector<FuncProfile> funcs_;
};

// Maps body pc -> profile site ordinal for the site-bearing opcodes (kLoop,
// kIf, kBrIf, kCallIndirect); kNoProfileSite elsewhere. The three site kinds
// use disjoint opcodes, so one vector serves all of them.
std::vector<uint32_t> BuildSiteMap(const Function& func);

// Interpreter-facing collection state: a Profile sized for one module plus
// the per-function pc -> site maps the interpreter indexes while running.
class ProfileCollector {
 public:
  explicit ProfileCollector(const Module& module);

  // Bumps the entry count and returns the per-function slot the interpreter
  // increments directly on its hot path (null is never returned).
  FuncProfile* OnFuncEntry(uint32_t joint_index) {
    FuncProfile& fp = profile_.func(joint_index);
    fp.entry_count++;
    return &fp;
  }

  // pc -> site ordinal map for defined function `defined_index`.
  const std::vector<uint32_t>& site_map(uint32_t defined_index) const {
    return site_maps_[defined_index];
  }

  Profile& profile() { return profile_; }
  const Profile& profile() const { return profile_; }

 private:
  Profile profile_;
  std::vector<std::vector<uint32_t>> site_maps_;  // per defined function
};

}  // namespace nsf

#endif  // SRC_PROFILE_PROFILE_H_

// Sampled, always-on profiling for continuous tiering: the predecoded
// interpreter counts every Nth back-edge/call ("sampling event") into a
// SampledProfile instead of running the full instrumented warm-up.
//
// Contract with the machine (src/machine/decode.cc):
//   - The interpreter keeps a plain countdown and LOCAL per-function count
//     vectors; only SimMachine's destructor folds them into this object's
//     atomics (the same fold-on-destruction pattern as the dispatch-stats
//     tables), so the hot path never touches shared state.
//   - Sampling is invisible to PerfCounters: the hooks only read the decoded
//     stream and bump sampling-local state — bit-identical counters with
//     sampling on, off, or compiled out entirely.
//   - Deterministic: the countdown is seeded from the period and every Nth
//     event samples, so the same program + same period yields the same
//     counts on every run.
//
// Consumption: ToProfile() reconstructs a hotness-only Profile (entry counts
// and self-instruction weight scaled by the period, EMPTY site vectors, which
// the PGO passes read as "no site data"). The background tierer feeds it to
// the existing PGO pipeline for layout decisions, or uses the sample totals
// purely as a hotness trigger for a full warm-up collected off the serve
// path.
#ifndef SRC_PROFILE_SAMPLED_H_
#define SRC_PROFILE_SAMPLED_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/profile/profile.h"

namespace nsf {

class SampledProfile {
 public:
  // `num_funcs` is the machine-level (defined) function count; `period`
  // is the sampling stride (every Nth back-edge/call records one sample).
  // period == 0 is a valid "never samples" sink.
  SampledProfile(uint32_t num_funcs, uint32_t period);

  uint32_t num_funcs() const { return num_funcs_; }
  uint32_t period() const { return period_; }

  // Folds one machine's local count vectors (sized num_funcs) in. Called
  // from SimMachine's destructor; concurrent folds from racing machine
  // teardowns are safe (relaxed atomic adds — the totals are a hotness
  // signal, never a correctness input).
  void Fold(const uint64_t* entries, const uint64_t* backedges, uint32_t n);

  uint64_t entry_samples(uint32_t func) const {
    return func < num_funcs_ ? entries_[func].load(std::memory_order_relaxed) : 0;
  }
  uint64_t backedge_samples(uint32_t func) const {
    return func < num_funcs_ ? backedges_[func].load(std::memory_order_relaxed) : 0;
  }
  // All samples ever folded (entries + back-edges) — the hotness trigger the
  // background tierer polls.
  uint64_t total_samples() const { return total_.load(std::memory_order_relaxed); }

  // Reconstructs a hotness-only Profile: machine function f maps to joint
  // index `num_imported + f`; entry_count and instrs_retired are the sample
  // counts scaled back up by the period; all site vectors stay empty.
  Profile ToProfile(uint32_t num_imported = 0) const;

  void Reset();

 private:
  uint32_t num_funcs_;
  uint32_t period_;
  std::unique_ptr<std::atomic<uint64_t>[]> entries_;
  std::unique_ptr<std::atomic<uint64_t>[]> backedges_;
  std::atomic<uint64_t> total_{0};
};

}  // namespace nsf

#endif  // SRC_PROFILE_SAMPLED_H_

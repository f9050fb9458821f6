#include "src/profile/sampled.h"

namespace nsf {

SampledProfile::SampledProfile(uint32_t num_funcs, uint32_t period)
    : num_funcs_(num_funcs),
      period_(period),
      entries_(new std::atomic<uint64_t>[num_funcs]),
      backedges_(new std::atomic<uint64_t>[num_funcs]) {
  Reset();
}

void SampledProfile::Fold(const uint64_t* entries, const uint64_t* backedges, uint32_t n) {
  if (n > num_funcs_) {
    n = num_funcs_;
  }
  uint64_t folded = 0;
  for (uint32_t f = 0; f < n; f++) {
    if (entries[f] != 0) {
      entries_[f].fetch_add(entries[f], std::memory_order_relaxed);
    }
    if (backedges[f] != 0) {
      backedges_[f].fetch_add(backedges[f], std::memory_order_relaxed);
    }
    folded += entries[f] + backedges[f];
  }
  if (folded != 0) {
    total_.fetch_add(folded, std::memory_order_relaxed);
  }
}

Profile SampledProfile::ToProfile(uint32_t num_imported) const {
  Profile profile(num_imported + num_funcs_);
  const uint64_t scale = period_ == 0 ? 1 : period_;
  for (uint32_t f = 0; f < num_funcs_; f++) {
    uint64_t e = entries_[f].load(std::memory_order_relaxed);
    uint64_t b = backedges_[f].load(std::memory_order_relaxed);
    FuncProfile& fp = profile.func(num_imported + f);
    fp.entry_count = e * scale;
    // Each sample stands for ~period dispatch events of progress inside the
    // function, so the combined scaled count is the self-weight proxy the
    // layout pass ranks by.
    fp.instrs_retired = (e + b) * scale;
  }
  return profile;
}

void SampledProfile::Reset() {
  for (uint32_t f = 0; f < num_funcs_; f++) {
    entries_[f].store(0, std::memory_order_relaxed);
    backedges_[f].store(0, std::memory_order_relaxed);
  }
  total_.store(0, std::memory_order_relaxed);
}

}  // namespace nsf

// Set-associative LRU cache model used for both L1i and L1d (with a shared
// unified L2 behind them).
//
// Each set keeps its line tags in recency order, most recent first, with
// empty ways (kEmpty) at the tail. That is exactly true LRU: a timestamp
// model fills empty ways before it evicts anything and then evicts the least
// recently used line, which here is always the tail. Which physical way holds
// a line is not observable, so hit/miss sequences match a timestamp model's
// bit for bit.
#ifndef SRC_MACHINE_CACHE_H_
#define SRC_MACHINE_CACHE_H_

#include <cstdint>
#include <vector>

namespace nsf {

class CacheModel {
 public:
  // size_bytes must equal sets * line_size * ways, with line_size and the set
  // count powers of two; any other geometry throws std::invalid_argument.
  CacheModel(uint32_t size_bytes, uint32_t line_size, uint32_t ways);

  // Touches the line containing `addr`; returns true on hit. Inline: both
  // dispatch cores call it on every fetch and data access, and the way-0 hit
  // is the common case.
  bool Access(uint64_t addr) {
    const uint64_t line = addr >> line_shift_;
    uint64_t* set = tags_.data() + (line & set_mask_) * ways_;
    if (set[0] == line) {
      return true;
    }
    uint32_t w = 1;
    while (w < ways_ && set[w] != line) {
      w++;
    }
    const bool hit = w < ways_;
    // Move the line to the front: ways before it shift down one. A miss
    // shifts the whole set, dropping the tail (empty, or the LRU line).
    for (uint32_t k = hit ? w : ways_ - 1; k > 0; k--) {
      set[k] = set[k - 1];
    }
    set[0] = line;
    return hit;
  }

  // Touches every line in [addr, addr+size); returns the number of misses.
  uint32_t AccessRange(uint64_t addr, uint32_t size);

  void Reset();

 private:
  static constexpr uint64_t kEmpty = UINT64_MAX;  // no line index reaches it

  uint32_t line_shift_;
  uint32_t ways_;
  uint64_t set_mask_;
  std::vector<uint64_t> tags_;  // sets * ways_, each set most recent first
};

}  // namespace nsf

#endif  // SRC_MACHINE_CACHE_H_

#include "src/machine/cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace nsf {

CacheModel::CacheModel(uint32_t size_bytes, uint32_t line_size, uint32_t ways)
    : line_shift_(static_cast<uint32_t>(std::countr_zero(line_size))), ways_(ways) {
  const uint64_t set_bytes = uint64_t{line_size} * ways;
  const uint64_t sets = set_bytes == 0 ? 0 : size_bytes / set_bytes;
  if (!std::has_single_bit(line_size) || !std::has_single_bit(sets) ||
      sets * set_bytes != size_bytes) {
    throw std::invalid_argument(
        "CacheModel: size must be sets * line_size * ways with power-of-two sets and line size");
  }
  set_mask_ = sets - 1;
  tags_.assign(sets * ways, kEmpty);
}

uint32_t CacheModel::AccessRange(uint64_t addr, uint32_t size) {
  uint32_t miss_count = 0;
  uint64_t first = addr >> line_shift_;
  uint64_t last = (addr + (size > 0 ? size - 1 : 0)) >> line_shift_;
  for (uint64_t line = first; line <= last; line++) {
    if (!Access(line << line_shift_)) {
      miss_count++;
    }
  }
  return miss_count;
}

void CacheModel::Reset() { std::fill(tags_.begin(), tags_.end(), kEmpty); }

}  // namespace nsf

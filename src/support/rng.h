// Deterministic pseudo-random number generation used by workload
// generators. All randomness in this repository flows
// through SplitMix64/Xoshiro so results are reproducible across platforms.
#ifndef SRC_SUPPORT_RNG_H_
#define SRC_SUPPORT_RNG_H_

#include <cstdint>

namespace nsf {

// SplitMix64: used to seed and for simple streams.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// xoshiro256** — fast, high-quality deterministic generator.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) {
      s = sm.Next();
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound) { return Next() % bound; }

  // Uniform in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(NextBelow(static_cast<uint64_t>(hi - lo + 1)));
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

}  // namespace nsf

#endif  // SRC_SUPPORT_RNG_H_

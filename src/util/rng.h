// Deterministic pseudo-random number generation for graph generators and
// property-based tests.
//
// All randomness in the repository flows through these generators so that
// every dataset, workload, and test sweep is reproducible from a seed.
// SplitMix64 is used for seeding/hashing; Xoshiro256** is the workhorse
// generator (fast, high quality, 2^256-1 period).
#ifndef PIVOTSCALE_UTIL_RNG_H_
#define PIVOTSCALE_UTIL_RNG_H_

#include <array>
#include <cstdint>

namespace pivotscale {

// SplitMix64: statistically strong 64-bit mixer. Ideal for turning small
// integer seeds into well-distributed state, and as a stateless hash.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  // Returns the next 64-bit value and advances the state.
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Stateless mix of a single value (useful as a deterministic hash).
  static std::uint64_t Mix(std::uint64_t x) { return SplitMix64(x).Next(); }

 private:
  std::uint64_t state_;
};

// Xoshiro256**: the repository's primary PRNG. Next and NextDouble are
// inline: the RMAT generator draws tens of millions of values per graph.
class Rng {
 public:
  // Seeds the four words of state from SplitMix64(seed).
  explicit Rng(std::uint64_t seed);

  // Uniform 64-bit value.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  // multiply-shift rejection method to avoid modulo bias.
  std::uint64_t Below(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t Between(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1): 53 random mantissa bits.
  double NextDouble() { return (Next() >> 11) * 0x1.0p-53; }

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool Chance(double p);

 private:
  friend class RngJump;

  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

// Moves an Rng `draws` calls of Next() ahead without making them, so that
// the chunks of a parallel generator can each start where the serial
// stream would be. Xoshiro's step is linear over GF(2), so `draws` steps
// are one 256x256 bit matrix: the constructor raises the one-step matrix
// to `draws` by repeated squaring (O(log draws) matrix products, a few
// milliseconds), and Apply costs 256 masked 4-word XORs.
class RngJump {
 public:
  explicit RngJump(std::uint64_t draws);

  // Leaves *rng in the state it would reach after `draws` calls of Next().
  void Apply(Rng* rng) const;

 private:
  // Column i is the image of state bit i (word i / 64, bit i % 64).
  std::array<std::array<std::uint64_t, 4>, 256> columns_;
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_UTIL_RNG_H_

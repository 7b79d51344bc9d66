#include "util/rng.h"

namespace pivotscale {

namespace {

// Xoshiro's 256-bit state, and a 256x256 bit matrix as its 256 columns.
using State = std::array<std::uint64_t, 4>;
using Matrix = std::array<State, 256>;

// m * x over GF(2): the XOR of the columns of m selected by x's bits.
State Times(const Matrix& m, const State& x) {
  State out{};
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t mask = 0 - ((x[i / 64] >> (i % 64)) & 1);
    for (int w = 0; w < 4; ++w) out[w] ^= m[i][w] & mask;
  }
  return out;
}

// a * b, column by column.
Matrix Times(const Matrix& a, const Matrix& b) {
  Matrix out;
  for (int i = 0; i < 256; ++i) out[i] = Times(a, b[i]);
  return out;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.Next();
  // All-zero state is the one forbidden state of xoshiro; SplitMix64 cannot
  // produce four consecutive zeros from any seed, but guard regardless.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::Below(std::uint64_t bound) {
  // Lemire's nearly-divisionless method.
  std::uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::Between(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(Below(span));
}

bool Rng::Chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

RngJump::RngJump(std::uint64_t draws) {
  // step: one call of Next(), found by stepping each basis state.
  Matrix step;
  for (int i = 0; i < 256; ++i) {
    State basis{};
    basis[i / 64] = std::uint64_t{1} << (i % 64);
    columns_[i] = basis;
    Rng rng(0);
    rng.s_ = basis;
    rng.Next();
    step[i] = rng.s_;
  }
  // columns_ starts as the identity. Powers of one matrix commute, so the
  // product order is free.
  for (; draws != 0; draws >>= 1) {
    if (draws & 1) columns_ = Times(step, columns_);
    if (draws > 1) step = Times(step, step);
  }
}

void RngJump::Apply(Rng* rng) const { rng->s_ = Times(columns_, rng->s_); }

}  // namespace pivotscale

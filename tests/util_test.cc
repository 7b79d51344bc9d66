// Unit tests for the utility substrate: RNG, 128-bit saturating counters,
// binomial tables, byte maps, prefix sums, CLI parsing, stats.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "exec/thread_budget.h"
#include "util/binomial.h"
#include "util/bytemap.h"
#include "util/cli.h"
#include "util/prefix_sum.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/uint128.h"

namespace pivotscale {
namespace {

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, MatchesRecordedStream) {
  // xoshiro256** outputs recorded before the generator moved inline: every
  // dataset and workload is defined by this stream, so it may never change.
  struct Case {
    std::uint64_t seed;
    std::uint64_t first[4];
  };
  const Case cases[] = {
      {0,
       {0x99ec5f36cb75f2b4ULL, 0xbf6e1f784956452aULL, 0x1a5f849d4933e6e0ULL,
        0x6aa594f1262d2d2cULL}},
      {1,
       {0xb3f2af6d0fc710c5ULL, 0x853b559647364ceaULL, 0x92f89756082a4514ULL,
        0x642e1c7bc266a3a7ULL}},
      {0xf41e,
       {0x4f60c8c651eee115ULL, 0x5675e30e788c92c0ULL, 0x203349eff8102c38ULL,
        0x43e32d10dacf1e68ULL}},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    for (const std::uint64_t want : c.first)
      EXPECT_EQ(rng.Next(), want) << "seed " << c.seed;
  }
}

TEST(RngJump, MatchesStepping) {
  for (const std::uint64_t draws :
       {0ULL, 1ULL, 63ULL, 64ULL, 65ULL, 1000ULL, (1ULL << 20) + 3}) {
    Rng stepped(0xf41e);
    for (std::uint64_t i = 0; i < draws; ++i) stepped.Next();
    Rng jumped(0xf41e);
    RngJump(draws).Apply(&jumped);
    for (int i = 0; i < 8; ++i)
      ASSERT_EQ(jumped.Next(), stepped.Next()) << draws << " draws";
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.Next() == b.Next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.Below(bound), bound);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.Between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(23);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i)
    if (rng.Chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(SplitMix64, MixIsStateless) {
  EXPECT_EQ(SplitMix64::Mix(42), SplitMix64::Mix(42));
  EXPECT_NE(SplitMix64::Mix(42), SplitMix64::Mix(43));
}

// ---------------------------------------------------------------- uint128

TEST(Uint128, ToStringSmall) {
  EXPECT_EQ(ToString(static_cast<uint128>(0)), "0");
  EXPECT_EQ(ToString(static_cast<uint128>(7)), "7");
  EXPECT_EQ(ToString(static_cast<uint128>(1234567890)), "1234567890");
}

TEST(Uint128, ToStringLarge) {
  // 2^64 = 18446744073709551616
  const uint128 v = static_cast<uint128>(1) << 64;
  EXPECT_EQ(ToString(v), "18446744073709551616");
}

TEST(Uint128, ToStringMax) {
  EXPECT_EQ(ToString(kUint128Max),
            "340282366920938463463374607431768211455");
}

TEST(Uint128, ParseRoundTrip) {
  for (const char* s :
       {"0", "1", "999", "18446744073709551616",
        "340282366920938463463374607431768211455"}) {
    uint128 v = 0;
    ASSERT_TRUE(ParseUint128(s, &v));
    EXPECT_EQ(ToString(v), s);
  }
}

TEST(Uint128, ParseRejectsGarbage) {
  uint128 v = 0;
  EXPECT_FALSE(ParseUint128("", &v));
  EXPECT_FALSE(ParseUint128("12a", &v));
  EXPECT_FALSE(ParseUint128("-1", &v));
}

TEST(Uint128, SatAddSaturates) {
  EXPECT_EQ(SatAdd(kUint128Max, 1), kUint128Max);
  EXPECT_EQ(SatAdd(kUint128Max - 1, 1), kUint128Max);
  EXPECT_EQ(SatAdd(kUint128Max, kUint128Max), kUint128Max);
  EXPECT_EQ(SatAdd(5, 7), static_cast<uint128>(12));
}

TEST(Uint128, SatMulSaturates) {
  const uint128 half = static_cast<uint128>(1) << 127;
  EXPECT_EQ(SatMul(half, 2), kUint128Max);
  EXPECT_EQ(SatMul(half, 1), half);
  EXPECT_EQ(SatMul(0, kUint128Max), static_cast<uint128>(0));
  EXPECT_EQ(SatMul(3, 4), static_cast<uint128>(12));
}

TEST(BigCount, ArithmeticAndComparison) {
  BigCount a(10), b(3);
  EXPECT_EQ((a + b).ToString(), "13");
  EXPECT_EQ((a * b).ToString(), "30");
  EXPECT_TRUE(b < a);
  EXPECT_TRUE(a >= b);
  EXPECT_TRUE(a != b);
  EXPECT_FALSE(a.saturated());
  EXPECT_TRUE(BigCount(kUint128Max).saturated());
}

TEST(BigCount, AsDoubleExactForSmall) {
  EXPECT_DOUBLE_EQ(BigCount(1000000).AsDouble(), 1e6);
}

// ---------------------------------------------------------------- binomial

TEST(Binomial, TableSmallValues) {
  BinomialTable t(10);
  EXPECT_EQ(t.Choose(0, 0), static_cast<uint128>(1));
  EXPECT_EQ(t.Choose(5, 2), static_cast<uint128>(10));
  EXPECT_EQ(t.Choose(10, 5), static_cast<uint128>(252));
  EXPECT_EQ(t.Choose(10, 0), static_cast<uint128>(1));
  EXPECT_EQ(t.Choose(10, 10), static_cast<uint128>(1));
}

TEST(Binomial, ChooseKGreaterThanNIsZero) {
  BinomialTable t(5);
  EXPECT_EQ(t.Choose(3, 4), static_cast<uint128>(0));
  EXPECT_EQ(BinomialChoose(3, 4), static_cast<uint128>(0));
}

TEST(Binomial, TableMatchesDirectComputation) {
  BinomialTable t(40);
  for (std::uint32_t n = 0; n <= 40; ++n)
    for (std::uint32_t k = 0; k <= n; ++k)
      EXPECT_EQ(t.Choose(n, k), BinomialChoose(n, k)) << n << " " << k;
}

TEST(Binomial, PaperExample24Choose12) {
  // "a 24-clique contains over 2.7 million 12-cliques" (Section I).
  EXPECT_EQ(ToString(BinomialChoose(24, 12)), "2704156");
}

TEST(Binomial, LargeValuesStay128Bit) {
  // C(120, 60) ~ 9.6e34 fits in 128 bits.
  BinomialTable t(120);
  EXPECT_NE(t.Choose(120, 60), kUint128Max);
  EXPECT_EQ(t.Choose(120, 60), BinomialChoose(120, 60));
}

TEST(Binomial, SaturatesInsteadOfWrapping) {
  // C(140, 70) ~ 9.4e40 exceeds 2^128-1 ~ 3.4e38.
  BinomialTable t(140);
  EXPECT_EQ(t.Choose(140, 70), kUint128Max);
}

TEST(Binomial, EnsureRowsGrows) {
  BinomialTable t(4);
  t.EnsureRows(12);
  EXPECT_EQ(t.Choose(12, 6), static_cast<uint128>(924));
}

TEST(Binomial, PascalIdentity) {
  BinomialTable t(30);
  for (std::uint32_t n = 2; n <= 30; ++n)
    for (std::uint32_t k = 1; k < n; ++k)
      EXPECT_EQ(t.Choose(n, k),
                SatAdd(t.Choose(n - 1, k - 1), t.Choose(n - 1, k)));
}

// ---------------------------------------------------------------- bytemap

TEST(ByteMap, SetTestUnset) {
  ByteMap m(16);
  EXPECT_FALSE(m.Test(3));
  m.Set(3);
  EXPECT_TRUE(m.Test(3));
  m.Unset(3);
  EXPECT_FALSE(m.Test(3));
}

TEST(ByteMap, ClearIds) {
  ByteMap m(8);
  std::vector<std::uint32_t> ids = {1, 4, 6};
  for (auto id : ids) m.Set(id);
  m.ClearIds(ids);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_FALSE(m.Test(i));
}

TEST(ByteMap, EnsureCapacityPreserves) {
  ByteMap m(4);
  m.Set(2);
  m.EnsureCapacity(100);
  EXPECT_TRUE(m.Test(2));
  EXPECT_FALSE(m.Test(99));
  EXPECT_GE(m.capacity(), 100u);
}

// ---------------------------------------------------------------- prefix sum

TEST(PrefixSum, ExclusiveScanBasic) {
  std::vector<std::uint64_t> in = {3, 1, 4, 1, 5};
  std::vector<std::uint64_t> out;
  const std::uint64_t total = ParallelPrefixSum(in, &out);
  EXPECT_EQ(total, 14u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 3, 4, 8, 9}));
}

TEST(PrefixSum, EmptyInput) {
  std::vector<std::uint64_t> in, out;
  EXPECT_EQ(ParallelPrefixSum(in, &out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(PrefixSum, InPlaceAliasing) {
  std::vector<std::uint64_t> v = {2, 2, 2, 2};
  EXPECT_EQ(ParallelPrefixSum(v, &v), 8u);
  EXPECT_EQ(v, (std::vector<std::uint64_t>{0, 2, 4, 6}));
}

TEST(PrefixSum, LargeRandomMatchesSequential) {
  Rng rng(5);
  std::vector<std::uint64_t> in(10000);
  for (auto& x : in) x = rng.Below(100);
  std::vector<std::uint64_t> expected(in.size());
  std::uint64_t run = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    expected[i] = run;
    run += in[i];
  }
  std::vector<std::uint64_t> out;
  EXPECT_EQ(ParallelPrefixSum(in, &out), run);
  EXPECT_EQ(out, expected);
}

TEST(PrefixSum, MatchesExclusiveScanAtEveryTeamSize) {
  // Sizes 0 and 1 scan serially; one item above three blocks runs both
  // parallel passes and leaves a one-item last block. Every team must
  // give std::exclusive_scan's output, into a second vector and in place.
  ThreadBudget& budget = ThreadBudget::Global();
  const int saved = budget.capacity();
  Rng rng(21);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              3 * kPrefixSumBlock + 1}) {
    std::vector<std::uint64_t> in(n);
    for (auto& x : in) x = rng.Below(1000);
    std::vector<std::uint64_t> want(n);
    std::exclusive_scan(in.begin(), in.end(), want.begin(),
                        std::uint64_t{0});
    const std::uint64_t total =
        std::accumulate(in.begin(), in.end(), std::uint64_t{0});
    for (int team = 1; team <= 4; ++team) {
      budget.SetCapacity(team);
      std::vector<std::uint64_t> out;
      EXPECT_EQ(ParallelPrefixSum(in, &out), total) << n << " " << team;
      EXPECT_EQ(out, want) << n << " " << team;
      std::vector<std::uint64_t> aliased = in;
      EXPECT_EQ(ParallelPrefixSum(aliased, &aliased), total)
          << n << " " << team;
      EXPECT_EQ(aliased, want) << n << " " << team;
    }
  }
  budget.SetCapacity(saved);
}

// ---------------------------------------------------------------- cli

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--k", "8", "--name=orkut", "file.el",
                        "--verbose"};
  ArgParser args(6, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("k", 0), 8);
  EXPECT_EQ(args.GetString("name", ""), "orkut");
  EXPECT_TRUE(args.GetBool("verbose", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "file.el");
}

TEST(Cli, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  ArgParser args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("k", 42), 42);
  EXPECT_EQ(args.GetDouble("eps", -0.5), -0.5);
  EXPECT_FALSE(args.Has("k"));
}

TEST(Cli, IntList) {
  const char* argv[] = {"prog", "--ks", "4,6,8"};
  ArgParser args(3, const_cast<char**>(argv));
  EXPECT_EQ(args.GetIntList("ks", {}),
            (std::vector<std::int64_t>{4, 6, 8}));
}

TEST(Cli, MalformedValuesThrow) {
  const char* argv[] = {"prog", "--k", "abc"};
  ArgParser args(3, const_cast<char**>(argv));
  EXPECT_THROW(args.GetInt("k", 0), std::exception);
}

TEST(Cli, NegativeNumberAsValue) {
  const char* argv[] = {"prog", "--eps", "-0.5"};
  ArgParser args(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.GetDouble("eps", 0), -0.5);
}

// ---------------------------------------------------------------- stats

TEST(Stats, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0);
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-12);
}

TEST(Stats, GeoMean) {
  EXPECT_NEAR(GeoMean({1, 8}), 2.828427, 1e-5);
  EXPECT_DOUBLE_EQ(GeoMean({5}), 5);
}

TEST(Stats, CoeffOfVariation) {
  EXPECT_DOUBLE_EQ(CoeffOfVariation({3, 3, 3}), 0);
  EXPECT_GT(CoeffOfVariation({1, 10}), 0.5);
}

// ---------------------------------------------------------------- table

TEST(Table, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KiB");
  EXPECT_EQ(HumanBytes(std::uint64_t{3} << 20), "3.00 MiB");
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(TablePrinter::Cell(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Cell(std::int64_t{-5}), "-5");
}

}  // namespace
}  // namespace pivotscale

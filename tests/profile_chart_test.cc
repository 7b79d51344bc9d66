// Tests for the clique profile (succinct-clique-tree leaf digest), the
// color-sampling estimator, and the ASCII chart renderer.
#include <gtest/gtest.h>

#include "approx/approx_count.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "pivot/count.h"
#include "pivot/profile.h"
#include "test_helpers.h"
#include "util/ascii_chart.h"
#include "util/binomial.h"

namespace pivotscale {
namespace {

using testing_helpers::BruteForceCount;
using testing_helpers::MakeDag;

// The profile of every clique of the DAG: a kAllK run's leaf histogram.
CliqueProfile AllKProfile(const Graph& dag) {
  CountOptions options;
  options.mode = CountMode::kAllK;
  return CountCliques(dag, options).profile;
}

// ---------------------------------------------------------------- profile

TEST(CliqueProfile, MatchesAllKOnRandomGraphs) {
  // The profile is the kAllK run's leaf histogram; both of its readers
  // must reproduce brute force for every clique size, and nothing beyond
  // the largest clique.
  for (int seed : {3, 4, 5}) {
    EdgeList edges = GnM(100, 700, seed);
    PlantCliques(&edges, 100, 2, 6, 10, seed + 10);
    const Graph g = BuildGraph(std::move(edges));
    const Graph dag = MakeDag(g, OrderingKind::kCore);

    const CliqueProfile profile = AllKProfile(dag);
    const std::uint32_t omega = profile.MaxCliqueSize();
    ASSERT_GE(omega, 6u) << "seed=" << seed;
    const auto sizes = profile.PerSize(omega + 1);
    for (std::uint32_t s = 1; s <= omega + 1; ++s) {
      const auto truth = static_cast<uint128>(BruteForceCount(g, s));
      EXPECT_EQ(sizes[s].value(), truth) << "seed=" << seed << " s=" << s;
      EXPECT_EQ(profile.CountK(s).value(), truth)
          << "seed=" << seed << " s=" << s;
    }
  }
}

TEST(CliqueProfile, CompleteGraphDigest) {
  // K_n under any order: one all-pivot chain per root; leaves have r = 1
  // and np = out-degree, so the histogram is hist[1][d] = 1 for d = 0..n-1.
  const Graph g = BuildGraph(CompleteGraph(10));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  const CliqueProfile profile = AllKProfile(dag);
  EXPECT_EQ(profile.TotalLeaves(), 10u);
  EXPECT_EQ(profile.MaxCliqueSize(), 10u);
  EXPECT_EQ(profile.CountK(5).value(), BinomialChoose(10, 5));
  for (std::uint32_t d = 0; d < 10; ++d)
    EXPECT_EQ(profile.Leaves(1, d), 1u) << d;
}

TEST(CliqueProfile, AnswersManyKWithoutRecount) {
  EdgeList edges = Rmat(9, 8.0, 7);
  PlantCliques(&edges, 512, 3, 8, 14, 8);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  const CliqueProfile profile = AllKProfile(dag);
  for (std::uint32_t k = 1; k <= profile.MaxCliqueSize(); ++k) {
    CountOptions options;
    options.k = k;
    EXPECT_EQ(profile.CountK(k), CountCliques(dag, options).total) << k;
  }
  // Beyond the largest clique: zero.
  EXPECT_EQ(profile.CountK(profile.MaxCliqueSize() + 1), BigCount{});
}

TEST(CliqueProfile, RejectsUndirected) {
  const Graph g = BuildGraph(CompleteGraph(4));
  EXPECT_THROW(AllKProfile(g), std::invalid_argument);
}

// ---------------------------------------------------------- color sampling

TEST(ColorSampling, UnbiasedOnCompleteGraph) {
  // K_20 triangles: C(20,3) = 1140. With enough repeats the mean lands
  // within a few standard errors.
  const Graph g = BuildGraph(CompleteGraph(20));
  ColorSamplingConfig config;
  config.colors = 2;
  config.repeats = 40;
  config.seed = 5;
  const ApproxCountResult r = ColorSamplingCount(g, 3, config);
  const double exact = ToDouble(BinomialChoose(20, 3));
  EXPECT_NEAR(r.estimate_double, exact,
              4 * r.relative_std_error * r.estimate_double + 0.05 * exact);
}

TEST(ColorSampling, ReportsSpeedRelevantFields) {
  EdgeList edges = GnM(300, 2500, 9);
  PlantCliques(&edges, 300, 2, 6, 9, 10);
  const Graph g = BuildGraph(std::move(edges));
  const ApproxCountResult r = ColorSamplingCount(g, 4, {});
  EXPECT_GT(r.estimate_double, 0.0);
  EXPECT_GT(r.relative_std_error, 0.0);
  EXPECT_EQ(r.roots_sampled, 5u);  // default repeats
}

TEST(ColorSampling, Validates) {
  const Graph g = BuildGraph(CompleteGraph(5));
  ColorSamplingConfig config;
  config.colors = 1;
  EXPECT_THROW(ColorSamplingCount(g, 3, config), std::invalid_argument);
  config.colors = 4;
  config.repeats = 0;
  EXPECT_THROW(ColorSamplingCount(g, 3, config), std::invalid_argument);
  config.repeats = 2;
  EXPECT_THROW(ColorSamplingCount(g, 1, config), std::invalid_argument);
}

// ---------------------------------------------------------------- charts

TEST(AsciiChart, RendersAllSeriesAndLabels) {
  const std::vector<std::string> xs = {"6", "8", "10"};
  const std::vector<ChartSeries> series = {
      {"alpha", {1.0, 2.0, 3.0}},
      {"beta", {3.0, 2.0, 1.0}},
  };
  const std::string chart = RenderChart(xs, series);
  EXPECT_NE(chart.find("alpha"), std::string::npos);
  EXPECT_NE(chart.find("beta"), std::string::npos);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);
  EXPECT_NE(chart.find("10"), std::string::npos);
}

TEST(AsciiChart, LogScaleHandlesWideRange) {
  ChartOptions options;
  options.log_y = true;
  const std::string chart = RenderChart(
      {"a", "b"}, {{"s", {0.001, 1000.0}}}, options);
  EXPECT_FALSE(chart.empty());
  // Extremes land on the top and bottom plot rows.
  const std::size_t first_line = chart.find('\n');
  EXPECT_NE(chart.substr(0, first_line).find('*'), std::string::npos);
}

TEST(AsciiChart, EmptyInputsAreEmpty) {
  EXPECT_TRUE(RenderChart({}, {{"s", {}}}).empty());
  EXPECT_TRUE(RenderChart({"a"}, {}).empty());
  EXPECT_TRUE(RenderBars({}, {}).empty());
}

TEST(AsciiChart, BarsProportional) {
  const std::string bars =
      RenderBars({"small", "large"}, {1.0, 10.0}, 40);
  // The larger value gets ~10x the bar length.
  const std::size_t small_line = bars.find("small");
  const std::size_t large_line = bars.find("large");
  ASSERT_NE(small_line, std::string::npos);
  ASSERT_NE(large_line, std::string::npos);
  auto count_hashes = [&](std::size_t from) {
    std::size_t count = 0;
    for (std::size_t i = from; i < bars.size() && bars[i] != '\n'; ++i)
      if (bars[i] == '#') ++count;
    return count;
  };
  EXPECT_EQ(count_hashes(large_line), 40u);
  EXPECT_LE(count_hashes(small_line), 5u);
}

}  // namespace
}  // namespace pivotscale

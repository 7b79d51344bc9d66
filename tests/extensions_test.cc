// Tests for the extension modules: hybrid counting, approximate counting,
// graph transforms, and the analysis utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "analysis/analysis.h"
#include "approx/approx_count.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/transform.h"
#include "pivot/count.h"
#include "pivot/hybrid.h"
#include "test_helpers.h"
#include "util/binomial.h"

namespace pivotscale {
namespace {

using testing_helpers::BruteForceCount;
using testing_helpers::MakeDag;

// ---------------------------------------------------------------- hybrid

TEST(Hybrid, PicksStrategyByK) {
  const Graph g = BuildGraph(ErdosRenyi(100, 0.2, 3));
  HybridConfig config;
  config.pivot_threshold = 8;
  EXPECT_FALSE(CountKCliquesHybrid(g, 4, config).used_pivoting);
  EXPECT_TRUE(CountKCliquesHybrid(g, 8, config).used_pivoting);
  EXPECT_TRUE(CountKCliquesHybrid(g, 12, config).used_pivoting);
}

TEST(Hybrid, BothPathsMatchBruteForce) {
  const Graph g = BuildGraph(ErdosRenyi(30, 0.4, 5));
  HybridConfig config;
  config.pivot_threshold = 4;
  for (std::uint32_t k : {3u, 4u, 5u}) {
    EXPECT_EQ(CountKCliquesHybrid(g, k, config).total.value(),
              static_cast<uint128>(BruteForceCount(g, k)))
        << k;
  }
}

TEST(Hybrid, StrategyStringReflectsPath) {
  const Graph g = BuildGraph(CompleteGraph(10));
  HybridConfig config;
  config.pivot_threshold = 5;
  EXPECT_EQ(CountKCliquesHybrid(g, 3, config).strategy,
            "enumeration(core)");
  EXPECT_NE(CountKCliquesHybrid(g, 7, config).strategy.find("pivotscale"),
            std::string::npos);
}

// ---------------------------------------------------------------- approx

TEST(ApproxCount, FullSamplingIsExact) {
  EdgeList edges = GnM(150, 900, 7);
  PlantCliques(&edges, 150, 2, 6, 10, 8);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  CountOptions exact_options;
  exact_options.k = 5;
  const BigCount exact = CountCliques(dag, exact_options).total;

  ApproxCountConfig config;
  config.sample_fraction = 1.0;
  const ApproxCountResult result = ApproxCountKCliques(dag, 5, config);
  EXPECT_NEAR(result.estimate_double, exact.AsDouble(),
              exact.AsDouble() * 1e-9);
  EXPECT_DOUBLE_EQ(result.relative_std_error, 0.0);
  EXPECT_EQ(result.roots_sampled, result.roots_total);
}

TEST(ApproxCount, EstimateWithinToleranceOnSkewedGraph) {
  EdgeList edges = Rmat(12, 8.0, 9);
  PlantCliques(&edges, 4096, 10, 8, 16, 10);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  CountOptions exact_options;
  exact_options.k = 6;
  const double exact = CountCliques(dag, exact_options).total.AsDouble();

  ApproxCountConfig config;
  config.sample_fraction = 0.15;
  config.seed = 42;
  const ApproxCountResult result = ApproxCountKCliques(dag, 6, config);
  EXPECT_NEAR(result.estimate_double, exact, exact * 0.35);
  EXPECT_LT(result.roots_sampled, result.roots_total);
}

TEST(ApproxCount, MeanOverSeedsConverges) {
  // Root sampling is unbiased; on a homogeneous graph (no planted heavy
  // roots — a single clique root can hold half the count, which no dozen
  // runs can average away) the mean over seeds homes in on the exact
  // count much tighter than any single estimate.
  EdgeList edges = GnM(400, 4000, 11);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  CountOptions exact_options;
  exact_options.k = 5;
  const double exact = CountCliques(dag, exact_options).total.AsDouble();

  double sum = 0;
  const int runs = 12;
  for (int seed = 0; seed < runs; ++seed) {
    ApproxCountConfig config;
    config.sample_fraction = 0.1;
    config.seed = static_cast<std::uint64_t>(seed) + 1;
    sum += ApproxCountKCliques(dag, 5, config).estimate_double;
  }
  EXPECT_NEAR(sum / runs, exact, exact * 0.15);
}

TEST(ApproxCount, ValidatesArguments) {
  const Graph g = BuildGraph(CompleteGraph(5));
  EXPECT_THROW(ApproxCountKCliques(g, 3, {}), std::invalid_argument);
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  ApproxCountConfig config;
  config.sample_fraction = 0;
  EXPECT_THROW(ApproxCountKCliques(dag, 3, config), std::invalid_argument);
}

// ---------------------------------------------------------------- transforms

TEST(Transform, InducedSubgraphBasics) {
  const Graph g = BuildGraph(CompleteGraph(6));
  const std::vector<NodeId> pick = {1, 3, 5};
  const InducedResult r = InduceSubgraph(g, pick);
  EXPECT_EQ(r.graph.NumNodes(), 3u);
  EXPECT_EQ(r.graph.NumUndirectedEdges(), 3u);  // K_3
  EXPECT_EQ(r.original_ids, pick);
}

TEST(Transform, InducedSubgraphIgnoresDuplicates) {
  const Graph g = BuildGraph(PathGraph(5));
  const std::vector<NodeId> pick = {2, 2, 3};
  const InducedResult r = InduceSubgraph(g, pick);
  EXPECT_EQ(r.graph.NumNodes(), 2u);
  EXPECT_EQ(r.graph.NumUndirectedEdges(), 1u);
}

TEST(Transform, ExtractKCorePeelsTree) {
  // A 6-clique with pendant paths: the 3-core is exactly the clique.
  EdgeList edges = CompleteGraph(6);
  for (NodeId i = 0; i < 6; ++i) edges.emplace_back(i, 6 + i);
  const Graph g = BuildGraph(std::move(edges));
  const InducedResult core3 = ExtractKCore(g, 3);
  EXPECT_EQ(core3.graph.NumNodes(), 6u);
  EXPECT_EQ(core3.graph.NumUndirectedEdges(), 15u);
  const InducedResult core7 = ExtractKCore(g, 7);
  EXPECT_EQ(core7.graph.NumNodes(), 0u);
}

TEST(Transform, KCorePreservesCliqueCounts) {
  // Every k-clique lives inside the (k-1)-core, so counts must match.
  EdgeList edges = GnM(120, 500, 15);
  PlantCliques(&edges, 120, 2, 6, 9, 16);
  const Graph g = BuildGraph(std::move(edges));
  const std::uint32_t k = 5;
  const InducedResult core = ExtractKCore(g, k - 1);
  EXPECT_EQ(BruteForceCount(g, k), BruteForceCount(core.graph, k));
}

TEST(Transform, ConnectedComponentsAndLargest) {
  // Two components: a K_4 and a path of 3.
  EdgeList edges = CompleteGraph(4);
  edges.emplace_back(4, 5);
  edges.emplace_back(5, 6);
  const Graph g = BuildUndirected(std::move(edges), 7);
  const auto comp = ConnectedComponents(g);
  EXPECT_EQ(comp[0], comp[3]);
  EXPECT_EQ(comp[4], comp[6]);
  EXPECT_NE(comp[0], comp[4]);
  const InducedResult lcc = LargestConnectedComponent(g);
  EXPECT_EQ(lcc.graph.NumNodes(), 4u);
  EXPECT_EQ(lcc.graph.NumUndirectedEdges(), 6u);
}

TEST(Transform, DisjointUnionAddsCliqueCounts) {
  const Graph a = BuildGraph(CompleteGraph(7));
  const Graph b = BuildGraph(ErdosRenyi(25, 0.4, 17));
  const Graph u = DisjointUnion(a, b);
  for (std::uint32_t k : {2u, 3u, 4u}) {
    EXPECT_EQ(BruteForceCount(u, k),
              BruteForceCount(a, k) + BruteForceCount(b, k))
        << k;
  }
}

// ---------------------------------------------------------------- analysis

TEST(Analysis, TrianglesClosedForms) {
  EXPECT_EQ(CountTriangles(BuildGraph(CompleteGraph(10))),
            static_cast<std::uint64_t>(
                ToDouble(BinomialChoose(10, 3))));
  EXPECT_EQ(CountTriangles(BuildGraph(PathGraph(30))), 0u);
  EXPECT_EQ(CountTriangles(BuildGraph(CompleteBipartite(4, 5))), 0u);
}

TEST(Analysis, TrianglesMatchPivoterK3) {
  EdgeList edges = Rmat(10, 8.0, 19);
  PlantCliques(&edges, 1024, 5, 5, 9, 20);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  CountOptions options;
  options.k = 3;
  EXPECT_EQ(static_cast<uint128>(CountTriangles(g)),
            CountCliques(dag, options).total.value());
}

TEST(Analysis, ClusteringCoefficients) {
  // K_4: fully clustered.
  const Graph k4 = BuildGraph(CompleteGraph(4));
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(k4), 1.0);
  EXPECT_DOUBLE_EQ(AverageLocalClusteringCoefficient(k4), 1.0);
  // Star: no triangles.
  const Graph star = BuildGraph(StarGraph(10));
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(star), 0.0);
}

TEST(Analysis, Log2HistogramBuckets) {
  const std::vector<EdgeId> values = {0, 1, 2, 3, 4, 7, 8, 100};
  const auto hist = Log2Histogram(values);
  ASSERT_GE(hist.size(), 7u);
  EXPECT_EQ(hist[0], 2u);  // 0, 1
  EXPECT_EQ(hist[1], 2u);  // 2, 3
  EXPECT_EQ(hist[2], 2u);  // 4, 7
  EXPECT_EQ(hist[3], 1u);  // 8
  EXPECT_EQ(hist[6], 1u);  // 100
}

TEST(Analysis, AssortativityExtremes) {
  // A star is maximally disassortative.
  EXPECT_LT(DegreeAssortativity(BuildGraph(StarGraph(20))), -0.9);
  // A clique is degree-regular: correlation degenerates to 0 by
  // convention (zero variance).
  EXPECT_DOUBLE_EQ(DegreeAssortativity(BuildGraph(CompleteGraph(8))), 0.0);
}

TEST(Analysis, AssortativityMatchesHeuristicIntuition) {
  // Hub-to-hub structure (assortative analog) scores higher than a
  // star-heavy one (disassortative).
  const Dataset social = MakeDataset("orkut-like", 0.05);
  const Dataset stars = MakeDataset("wikitalk-like", 0.05);
  EXPECT_GT(DegreeAssortativity(social.graph),
            DegreeAssortativity(stars.graph));
}

}  // namespace
}  // namespace pivotscale

// Cross-validation of the baseline counters (enumeration, naive Pivoter,
// GPU-Pivot model) against brute force and against PivotScale.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/enumeration.h"
#include "baselines/gpu_pivot_model.h"
#include "baselines/pivoter_naive.h"
#include "graph/builder.h"
#include "graph/dag.h"
#include "graph/generators.h"
#include "pivot/count.h"
#include "pivot/count_on.h"
#include "test_helpers.h"
#include "util/binomial.h"

namespace pivotscale {
namespace {

using testing_helpers::BruteForceCount;
using testing_helpers::MakeDag;

// ---------------------------------------------------------------- enumeration

using SweepParam = std::tuple<int, double, int, int>;

class EnumerationSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EnumerationSweep, MatchesBruteForce) {
  const auto [n, p, seed, k] = GetParam();
  const Graph g = BuildGraph(
      ErdosRenyi(static_cast<NodeId>(n), p, static_cast<std::uint64_t>(seed)));
  if (g.NumNodes() == 0) GTEST_SKIP();
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  EnumerationOptions options;
  options.k = static_cast<std::uint32_t>(k);
  const EnumerationResult result = CountCliquesEnumeration(dag, options);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.total.value(),
            static_cast<uint128>(
                BruteForceCount(g, static_cast<std::uint32_t>(k))));
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, EnumerationSweep,
    ::testing::Combine(::testing::Values(10, 20, 30),
                       ::testing::Values(0.25, 0.5),
                       ::testing::Values(4, 5),
                       ::testing::Values(2, 3, 4, 5)));

TEST(Enumeration, CompleteGraph) {
  const Graph g = BuildGraph(CompleteGraph(12));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  for (std::uint32_t k : {1u, 3u, 6u, 12u}) {
    EnumerationOptions options;
    options.k = k;
    EXPECT_EQ(CountCliquesEnumeration(dag, options).total.value(),
              BinomialChoose(12, k));
  }
}

TEST(Enumeration, AgreesWithPivoterOnLargerGraph) {
  EdgeList edges = Rmat(10, 6.0, 61);
  PlantCliques(&edges, 1024, 4, 5, 9, 62);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  EnumerationOptions enum_options;
  enum_options.k = 5;
  CountOptions pivot_options;
  pivot_options.k = 5;
  EXPECT_EQ(CountCliquesEnumeration(dag, enum_options).total,
            CountCliques(dag, pivot_options).total);
}

TEST(Enumeration, TimeBudgetTriggersOnHardInstance) {
  // A graph with a 32-clique: enumeration of 12-cliques would visit
  // ~C(32,12) ~ 2e8 leaves; a microscopic budget must trip.
  const Graph g = BuildGraph(CompleteGraph(32));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  EnumerationOptions options;
  options.k = 12;
  options.time_budget_seconds = 1e-4;
  const EnumerationResult result = CountCliquesEnumeration(dag, options);
  EXPECT_TRUE(result.timed_out);
}

TEST(Enumeration, RejectsUndirectedAndZeroK) {
  const Graph g = BuildGraph(CompleteGraph(4));
  EXPECT_THROW(CountCliquesEnumeration(g, {}), std::invalid_argument);
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  EnumerationOptions options;
  options.k = 0;
  EXPECT_THROW(CountCliquesEnumeration(dag, options), std::invalid_argument);
}

// ---------------------------------------------------------------- naive pivoter

TEST(PivoterNaive, MatchesBruteForceSweep) {
  for (int seed : {71, 72, 73}) {
    const Graph g = BuildGraph(ErdosRenyi(25, 0.4, seed));
    for (std::uint32_t k : {3u, 4u, 5u}) {
      const PivoterNaiveResult result = RunPivoterNaive(g, k);
      EXPECT_EQ(result.total.value(),
                static_cast<uint128>(BruteForceCount(g, k)))
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(PivoterNaive, ReportsPhases) {
  const Graph g = BuildGraph(Rmat(9, 6.0, 77));
  const PivoterNaiveResult result = RunPivoterNaive(g, 5);
  EXPECT_GE(result.ordering_seconds, 0.0);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GT(result.max_out_degree, 0u);
}

TEST(PivoterNaive, UsesCoreQualityOrdering) {
  // Its max out-degree must match the exact core ordering's.
  EdgeList edges = GnM(200, 900, 79);
  PlantCliques(&edges, 200, 2, 8, 10, 80);
  const Graph g = BuildGraph(std::move(edges));
  const Graph core_dag = MakeDag(g, OrderingKind::kCore);
  const PivoterNaiveResult result = RunPivoterNaive(g, 4);
  EXPECT_EQ(result.max_out_degree, MaxOutDegree(core_dag));
}

// ---------------------------------------------------------------- gpu model

class GpuModelSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GpuModelSweep, MatchesBruteForce) {
  const auto [n, p, seed, k] = GetParam();
  const Graph g = BuildGraph(
      ErdosRenyi(static_cast<NodeId>(n), p, static_cast<std::uint64_t>(seed)));
  if (g.NumNodes() == 0) GTEST_SKIP();
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  const GpuPivotModelResult result =
      CountCliquesGpuPivotModel(dag, static_cast<std::uint32_t>(k));
  EXPECT_EQ(result.total.value(),
            static_cast<uint128>(
                BruteForceCount(g, static_cast<std::uint32_t>(k))));
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, GpuModelSweep,
    ::testing::Combine(::testing::Values(10, 20, 30, 40),
                       ::testing::Values(0.3, 0.6),
                       ::testing::Values(6, 7),
                       ::testing::Values(2, 3, 4, 5, 6)));

TEST(GpuModel, CompleteGraphLargeK) {
  const Graph g = BuildGraph(CompleteGraph(24));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  EXPECT_EQ(CountCliquesGpuPivotModel(dag, 12).total.value(),
            BinomialChoose(24, 12));
}

TEST(GpuModel, AgreesWithPivotScaleOnCliqueRichGraph) {
  EdgeList edges = GnM(400, 2000, 83);
  PlantCliques(&edges, 100, 10, 8, 16, 84);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  for (std::uint32_t k : {4u, 7u, 10u}) {
    CountOptions pivot_options;
    pivot_options.k = k;
    EXPECT_EQ(CountCliquesGpuPivotModel(dag, k).total,
              CountCliques(dag, pivot_options).total)
        << k;
  }
}

TEST(GpuModel, WordBoundarySubgraphSizes) {
  // Exercise bitset padding at 63/64/65-member first-level subgraphs: a
  // (w+1)-clique gives the root a w-member subgraph.
  for (NodeId w : {63u, 64u, 65u}) {
    const Graph g = BuildGraph(CompleteGraph(w + 1));
    const Graph dag = MakeDag(g, OrderingKind::kDegree);
    EXPECT_EQ(CountCliquesGpuPivotModel(dag, 3).total.value(),
              BinomialChoose(w + 1, 3))
        << w;
  }
}

TEST(GpuModel, RejectsUndirectedAndZeroK) {
  const Graph g = BuildGraph(CompleteGraph(4));
  EXPECT_THROW(CountCliquesGpuPivotModel(g, 3), std::invalid_argument);
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  EXPECT_THROW(CountCliquesGpuPivotModel(dag, 0), std::invalid_argument);
}

TEST(GpuModel, ReportsWorkspace) {
  const Graph g = BuildGraph(Rmat(9, 8.0, 85));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  EXPECT_GT(CountCliquesGpuPivotModel(dag, 5).workspace_bytes, 0u);
}

// ---------------------------------------------------------------- agreement

TEST(AllCounters, AgreeOnDatasetStyleGraph) {
  // Integration: every production counter and baseline produces the same
  // count on a moderately sized clique-rich graph.
  EdgeList edges = Rmat(11, 6.0, 91);
  PlantCliques(&edges, 512, 8, 6, 18, 92);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  const std::uint32_t k = 7;

  CountOptions options;
  options.k = k;
  const BigCount reference = CountCliques(dag, options).total;

  for (const SubgraphKind structure : testing_helpers::kAllSubgraphKinds) {
    EXPECT_EQ(CountCliquesOn(dag, options, structure).total, reference)
        << SubgraphKindName(structure);
  }
  EnumerationOptions enum_options;
  enum_options.k = k;
  EXPECT_EQ(CountCliquesEnumeration(dag, enum_options).total, reference);
  EXPECT_EQ(CountCliquesGpuPivotModel(dag, k).total, reference);
  EXPECT_EQ(RunPivoterNaive(g, k).total, reference);
}

}  // namespace
}  // namespace pivotscale

// Tests for the second wave of analysis/counting features: k-clique
// densest subgraph and the Watts-Strogatz generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/densest.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "pivot/count.h"
#include "test_helpers.h"
#include "util/binomial.h"
#include "util/telemetry.h"

namespace pivotscale {
namespace {

using testing_helpers::BruteForceCount;
using testing_helpers::MakeDag;

// ---------------------------------------------------------------- densest

TEST(Densest, FindsPlantedClique) {
  // A 10-clique in sparse noise is the 4-clique densest region.
  EdgeList edges = GnM(300, 600, 7);
  PlantCliques(&edges, 300, 1, 10, 10, 8);
  const Graph g = BuildGraph(std::move(edges));
  const DensestSubgraphResult result = KCliqueDensestSubgraph(g, 4);
  // Density should be at least the planted clique's C(10,4)/10 = 21.
  EXPECT_GE(result.density, 21.0 * 0.9);
  EXPECT_LE(result.vertices.size(), 40u);  // zoomed well past the noise
  EXPECT_GT(result.rounds, 1);
}

TEST(Densest, CompleteGraphIsItsOwnDensest) {
  const Graph g = BuildGraph(CompleteGraph(12));
  const DensestSubgraphResult result = KCliqueDensestSubgraph(g, 3);
  EXPECT_EQ(result.vertices.size(), 12u);
  EXPECT_DOUBLE_EQ(result.density,
                   ToDouble(BinomialChoose(12, 3)) / 12.0);
}

TEST(Densest, NoCliquesMeansEmptyResult) {
  const Graph g = BuildGraph(PathGraph(30));
  const DensestSubgraphResult result = KCliqueDensestSubgraph(g, 3);
  EXPECT_EQ(result.cliques, BigCount{});
  EXPECT_TRUE(result.vertices.empty());
}

TEST(Densest, ValidatesArguments) {
  const Graph g = BuildGraph(CompleteGraph(4));
  EXPECT_THROW(KCliqueDensestSubgraph(g, 1), std::invalid_argument);
  DensestSubgraphConfig config;
  config.peel_fraction = 0;
  EXPECT_THROW(KCliqueDensestSubgraph(g, 3, config),
               std::invalid_argument);
}

// ------------------------------------------------------- watts-strogatz

TEST(WattsStrogatz, RingLatticeAtZeroRewire) {
  const Graph g = BuildGraph(WattsStrogatz(30, 4, 0.0, 1));
  // Perfect ring lattice: every vertex has degree exactly 4.
  for (NodeId u = 0; u < 30; ++u) EXPECT_EQ(g.Degree(u), 4u);
}

TEST(WattsStrogatz, HighClusteringAtLowRewire) {
  const Graph low = BuildGraph(WattsStrogatz(500, 8, 0.01, 2));
  const Graph high = BuildGraph(WattsStrogatz(500, 8, 1.0, 2));
  // Triangle density collapses as rewiring randomizes the lattice.
  auto triangle_rate = [](const Graph& g) {
    std::uint64_t triangles = 0;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      const auto nbrs = g.Neighbors(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i)
        for (std::size_t j = i + 1; j < nbrs.size(); ++j)
          if (g.HasEdge(nbrs[i], nbrs[j])) ++triangles;
    }
    return static_cast<double>(triangles);
  };
  EXPECT_GT(triangle_rate(low), 4 * triangle_rate(high));
}

TEST(WattsStrogatz, Validates) {
  EXPECT_THROW(WattsStrogatz(10, 3, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(WattsStrogatz(10, 0, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(WattsStrogatz(10, 10, 0.1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace pivotscale

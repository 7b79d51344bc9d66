// Tests for the ordering library: permutation validity, degeneracy
// guarantees, approximation quality, and the selection heuristic.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/builder.h"
#include "graph/dag.h"
#include "graph/generators.h"
#include "order/approx_core_order.h"
#include "order/centrality_order.h"
#include "order/core_order.h"
#include "order/degree_order.h"
#include "order/heuristic.h"
#include "order/kcore_order.h"
#include "order/ordering.h"
#include "util/telemetry.h"

namespace pivotscale {
namespace {

// Reference degeneracy: repeatedly strip min-degree vertices, O(n^2).
EdgeId ReferenceDegeneracy(const Graph& g) {
  const NodeId n = g.NumNodes();
  std::vector<EdgeId> degree(n);
  std::vector<bool> removed(n, false);
  for (NodeId u = 0; u < n; ++u) degree[u] = g.Degree(u);
  EdgeId degeneracy = 0;
  for (NodeId step = 0; step < n; ++step) {
    NodeId best = 0;
    EdgeId best_degree = ~EdgeId{0};
    for (NodeId u = 0; u < n; ++u)
      if (!removed[u] && degree[u] < best_degree) {
        best = u;
        best_degree = degree[u];
      }
    removed[best] = true;
    degeneracy = std::max(degeneracy, best_degree);
    for (NodeId v : g.Neighbors(best))
      if (!removed[v]) --degree[v];
  }
  return degeneracy;
}

// Reference coreness: iterate peeling at each level, O(n^2).
std::vector<EdgeId> ReferenceCoreness(const Graph& g) {
  const NodeId n = g.NumNodes();
  std::vector<EdgeId> degree(n), coreness(n, 0);
  std::vector<bool> removed(n, false);
  for (NodeId u = 0; u < n; ++u) degree[u] = g.Degree(u);
  NodeId left = n;
  EdgeId level = 0;
  while (left > 0) {
    bool any = true;
    while (any) {
      any = false;
      for (NodeId u = 0; u < n; ++u) {
        if (!removed[u] && degree[u] <= level) {
          removed[u] = true;
          coreness[u] = level;
          --left;
          any = true;
          for (NodeId v : g.Neighbors(u))
            if (!removed[v]) --degree[v];
        }
      }
    }
    ++level;
  }
  return coreness;
}

std::vector<Graph> TestGraphs() {
  std::vector<Graph> graphs;
  graphs.push_back(BuildGraph(CompleteGraph(12)));
  graphs.push_back(BuildGraph(PathGraph(30)));
  graphs.push_back(BuildGraph(StarGraph(20)));
  graphs.push_back(BuildGraph(Rmat(9, 6.0, 3)));
  graphs.push_back(BuildGraph(ErdosRenyi(60, 0.15, 5)));
  {
    EdgeList edges = GnM(100, 300, 7);
    PlantCliques(&edges, 100, 2, 8, 12, 9);
    graphs.push_back(BuildGraph(std::move(edges)));
  }
  return graphs;
}

// ---------------------------------------------------------------- validity

TEST(Orderings, AllProducePermutations) {
  for (const Graph& g : TestGraphs()) {
    for (auto kind :
         {OrderingKind::kDegree, OrderingKind::kCore,
          OrderingKind::kApproxCore, OrderingKind::kKCore,
          OrderingKind::kCentrality}) {
      const Ordering o = ComputeOrdering(g, {kind, -0.5});
      EXPECT_EQ(o.ranks.size(), g.NumNodes());
      EXPECT_TRUE(IsPermutation(o.ranks)) << o.name;
    }
  }
}

TEST(Orderings, SpecNamesAreDistinct) {
  EXPECT_EQ(OrderingSpecName({OrderingKind::kDegree}), "degree");
  EXPECT_EQ(OrderingSpecName({OrderingKind::kCore}), "core");
  EXPECT_NE(OrderingSpecName({OrderingKind::kApproxCore, -0.5}),
            OrderingSpecName({OrderingKind::kApproxCore, 0.1}));
}

TEST(Orderings, RoundsFieldIsTheRoundsGauge) {
  const Graph g = BuildGraph(Rmat(9, 6.0, 3));
  // Expected rounds per kind; 0 stands for "a peel's count, above 1".
  const std::pair<OrderingKind, int> expected[] = {
      {OrderingKind::kDegree, 1},     {OrderingKind::kCore, -1},
      {OrderingKind::kApproxCore, 0}, {OrderingKind::kKCore, 0},
      {OrderingKind::kCentrality, 3},
  };
  for (const auto& [kind, rounds] : expected) {
    TelemetryRegistry telemetry;
    const Ordering o = ComputeOrdering(g, {kind, -0.5}, &telemetry);
    EXPECT_EQ(telemetry.Gauge("ordering.rounds"), o.rounds) << o.name;
    if (rounds == 0) {
      EXPECT_GT(o.rounds, 1) << o.name;
    } else {
      EXPECT_EQ(o.rounds, rounds) << o.name;
    }
  }
}

TEST(ParseOrderingSpec, MapsEveryNameAndRejectsOthers) {
  EXPECT_EQ(ParseOrderingSpec("degree", 0.3).kind, OrderingKind::kDegree);
  EXPECT_EQ(ParseOrderingSpec("core", 0.3).kind, OrderingKind::kCore);
  EXPECT_EQ(ParseOrderingSpec("kcore", 0.3).kind, OrderingKind::kKCore);
  const OrderingSpec centrality = ParseOrderingSpec("centrality", 0.3);
  EXPECT_EQ(centrality.kind, OrderingKind::kCentrality);
  EXPECT_EQ(OrderingSpecName(centrality), "centrality(iters=3)");
  const OrderingSpec approx = ParseOrderingSpec("approx", 0.3);
  EXPECT_EQ(approx.kind, OrderingKind::kApproxCore);
  EXPECT_DOUBLE_EQ(approx.epsilon, 0.3);
  try {
    ParseOrderingSpec("bogus", -0.5);
    FAIL() << "an unknown --ordering name was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos)
        << e.what();
  }
}

TEST(RanksFromKeys, TiebreaksById) {
  const std::vector<std::uint64_t> keys = {5, 5, 1, 5};
  const auto ranks = RanksFromKeys(keys);
  EXPECT_EQ(ranks[2], 0u);  // lowest key first
  EXPECT_LT(ranks[0], ranks[1]);  // id order among ties
  EXPECT_LT(ranks[1], ranks[3]);
}

TEST(PackKey, OrdersLexicographically) {
  EXPECT_LT(PackKey(1, 1000), PackKey(2, 0));
  EXPECT_LT(PackKey(1, 5), PackKey(1, 6));
}

// ---------------------------------------------------------------- degree

TEST(DegreeOrdering, RanksAscendByDegree) {
  const Graph g = BuildGraph(StarGraph(10));
  const Ordering o = DegreeOrdering(g);
  // The hub (degree 9) must be ranked last.
  EXPECT_EQ(o.ranks[0], g.NumNodes() - 1);
}

TEST(DegreeOrdering, CountingSortMatchesRanksFromKeys) {
  // The counting sort must give exactly the (degree, id) ranks of the
  // comparison sort, so the DAG and every op count stay the same.
  EdgeList isolated = GnM(60, 90, 3);
  const std::vector<Graph> graphs = {
      BuildGraph(Rmat(12, 8.0, 17)),
      BuildGraph(StarGraph(50)),
      BuildUndirected(std::move(isolated), 200),  // ids 60..199 isolated
      BuildGraph({}),
      BuildUndirected({}, 1),
  };
  for (const Graph& g : graphs) {
    std::vector<std::uint64_t> degrees(g.NumNodes());
    for (NodeId u = 0; u < g.NumNodes(); ++u) degrees[u] = g.Degree(u);
    EXPECT_EQ(DegreeOrdering(g).ranks, RanksFromKeys(degrees))
        << "n=" << g.NumNodes();
  }
}

TEST(DegreeOrdering, MaxOutDegreeOnStarIsOne)  {
  // Directing low->high degree turns a star into leaves -> hub: every
  // out-degree is 1.
  const Graph g = BuildGraph(StarGraph(10));
  const Graph dag = Directionalize(g, DegreeOrdering(g).ranks);
  EXPECT_EQ(MaxOutDegree(dag), 1u);
}

// ---------------------------------------------------------------- core

TEST(CoreOrdering, AchievesDegeneracyBound) {
  for (const Graph& g : TestGraphs()) {
    const EdgeId degeneracy = ReferenceDegeneracy(g);
    const Graph dag = Directionalize(g, CoreOrdering(g).ranks);
    EXPECT_LE(MaxOutDegree(dag), degeneracy);
  }
}

TEST(CoreOrdering, DegeneracyMatchesReference) {
  for (const Graph& g : TestGraphs())
    EXPECT_EQ(Degeneracy(g), ReferenceDegeneracy(g));
}

TEST(CoreOrdering, CompleteGraphDegeneracy) {
  const Graph g = BuildGraph(CompleteGraph(9));
  EXPECT_EQ(Degeneracy(g), 8u);
}

TEST(CoreOrdering, TreeDegeneracyIsOne) {
  const Graph g = BuildGraph(PathGraph(50));
  EXPECT_EQ(Degeneracy(g), 1u);
}

TEST(CoreOrdering, NoOrderingBeatsDegeneracy) {
  // The core ordering is optimal: every other ordering's max out-degree is
  // at least the degeneracy.
  for (const Graph& g : TestGraphs()) {
    const EdgeId degeneracy = Degeneracy(g);
    for (auto kind : {OrderingKind::kDegree, OrderingKind::kApproxCore,
                      OrderingKind::kKCore, OrderingKind::kCentrality}) {
      const Graph dag =
          Directionalize(g, ComputeOrdering(g, {kind, -0.5}).ranks);
      EXPECT_GE(MaxOutDegree(dag), degeneracy)
          << OrderingSpecName({kind});
    }
  }
}

// ---------------------------------------------------------------- approx core

TEST(ApproxCore, LowEpsilonMatchesCoreQuality) {
  // The paper's headline: eps = -0.5 typically reproduces the core
  // ordering's max out-degree.
  for (const Graph& g : TestGraphs()) {
    const Graph core_dag = Directionalize(g, CoreOrdering(g).ranks);
    const Graph approx_dag =
        Directionalize(g, ApproxCoreOrdering(g, -0.5).ranks);
    EXPECT_LE(MaxOutDegree(approx_dag), MaxOutDegree(core_dag) * 2);
  }
}

TEST(ApproxCore, HighEpsilonDegeneratesToDegreeLike) {
  // eps so large that round 0 removes everything: ordering = (degree, id),
  // i.e. exactly the degree ordering.
  const Graph g = BuildGraph(Rmat(8, 6.0, 11));
  const Ordering ordering = ApproxCoreOrdering(g, 50000);
  EXPECT_EQ(ordering.rounds, 1);
  EXPECT_EQ(ordering.ranks, DegreeOrdering(g).ranks);
}

TEST(ApproxCore, RoundsDecreaseWithEpsilon) {
  const Graph g = BuildGraph(Rmat(10, 8.0, 13));
  const int rounds_low = ApproxCoreOrdering(g, -0.5).rounds;
  const int rounds_mid = ApproxCoreOrdering(g, 0.1).rounds;
  EXPECT_GT(rounds_low, rounds_mid);
  EXPECT_GE(rounds_mid, 1);
}

TEST(ApproxCore, TerminatesOnRegularGraphs) {
  // On a cycle every degree equals the average; eps < 0 relies on the
  // min-degree fallback for progress.
  const Graph g = BuildGraph(CycleGraph(40));
  const Ordering o = ApproxCoreOrdering(g, -0.5);
  EXPECT_TRUE(IsPermutation(o.ranks));
}

TEST(ApproxCore, TerminatesOnCompleteGraph) {
  const Graph g = BuildGraph(CompleteGraph(16));
  EXPECT_TRUE(IsPermutation(ApproxCoreOrdering(g, -0.9).ranks));
  EXPECT_TRUE(IsPermutation(ApproxCoreOrdering(g, 0.5).ranks));
}

TEST(ApproxCore, HandlesIsolatedVertices) {
  const Graph g = BuildUndirected({{0, 1}}, 5);
  EXPECT_TRUE(IsPermutation(ApproxCoreOrdering(g, -0.5).ranks));
}

// ---------------------------------------------------------------- k-core

TEST(KCore, CorenessMatchesReference) {
  for (const Graph& g : TestGraphs())
    EXPECT_EQ(CoreDecomposition(g), ReferenceCoreness(g));
}

TEST(KCore, CompleteGraphCoreness) {
  const Graph g = BuildGraph(CompleteGraph(7));
  for (EdgeId c : CoreDecomposition(g)) EXPECT_EQ(c, 6u);
}

TEST(KCore, PlantedCliqueHasHighCore) {
  EdgeList edges = PathGraph(100);
  PlantCliques(&edges, 100, 1, 10, 10, 3);
  const Graph g = BuildGraph(std::move(edges));
  const auto coreness = CoreDecomposition(g);
  const EdgeId max_core = *std::max_element(coreness.begin(), coreness.end());
  EXPECT_EQ(max_core, 9u);
}

TEST(KCore, MaxCorenessEqualsDegeneracy) {
  for (const Graph& g : TestGraphs()) {
    const auto coreness = CoreDecomposition(g);
    const EdgeId max_core =
        coreness.empty()
            ? 0
            : *std::max_element(coreness.begin(), coreness.end());
    EXPECT_EQ(max_core, Degeneracy(g));
  }
}

// ---------------------------------------------------------------- centrality

TEST(Centrality, HubRankedLast) {
  const Graph g = BuildGraph(StarGraph(20));
  const Ordering o = CentralityOrdering(g);
  EXPECT_EQ(o.ranks[0], g.NumNodes() - 1);
  EXPECT_EQ(o.name, "centrality(iters=3)");
  EXPECT_EQ(o.rounds, 3);
}

TEST(Centrality, QualityBetweenCoreAndDegreeOnSocialGraph) {
  // The Section III-C claim, tested loosely: centrality is never wildly
  // worse than degree.
  EdgeList edges = Rmat(10, 8.0, 17);
  PlantCliques(&edges, 1024, 6, 6, 14, 18);
  const Graph g = BuildGraph(std::move(edges));
  const EdgeId centrality_quality = MaxOutDegree(
      Directionalize(g, CentralityOrdering(g).ranks));
  const EdgeId degree_quality =
      MaxOutDegree(Directionalize(g, DegreeOrdering(g).ranks));
  EXPECT_LE(centrality_quality, degree_quality * 2);
}

// ---------------------------------------------------------------- heuristic

TEST(Heuristic, SmallGraphSelectsDegree) {
  const Graph g = BuildGraph(CompleteGraph(20));
  HeuristicConfig config;  // min_nodes = 1M
  EXPECT_FALSE(SelectOrdering(g, config).use_core_approx);
}

TEST(Heuristic, AssortativeLargeGraphSelectsCore) {
  // Two overlapping hubs with a large common neighborhood.
  EdgeList edges;
  const NodeId n = 2000;
  for (NodeId v = 2; v < 800; ++v) {
    edges.emplace_back(0, v);
    edges.emplace_back(1, v);
  }
  edges.emplace_back(0, 1);
  const Graph g = BuildUndirected(std::move(edges), n);
  HeuristicConfig config;
  config.min_nodes = 1000;
  const HeuristicDecision d = SelectOrdering(g, config);
  EXPECT_TRUE(d.use_core_approx);
  EXPECT_GT(d.common_fraction, 0.9);
  EXPECT_GT(d.a_ratio, 0.0015);
}

TEST(Heuristic, NonAssortativeSelectsDegree) {
  // One big hub whose neighbors are all leaves: a is tiny, no common
  // neighbors.
  const Graph g = BuildGraph(StarGraph(5000));
  HeuristicConfig config;
  config.min_nodes = 1000;
  const HeuristicDecision d = SelectOrdering(g, config);
  EXPECT_FALSE(d.use_core_approx);
  EXPECT_DOUBLE_EQ(d.common_fraction, 0.0);
}

TEST(Heuristic, ProbesMatchGraph) {
  const Graph g = BuildGraph(StarGraph(100));
  const HeuristicDecision d = SelectOrdering(g);
  EXPECT_EQ(d.max_degree_vertex, 0u);
  EXPECT_EQ(d.max_degree, 99u);
  EXPECT_EQ(d.a, 1u);  // neighbors are leaves
}

TEST(Heuristic, EmptyGraph) {
  const Graph g = BuildGraph({});
  const HeuristicDecision d = SelectOrdering(g);
  EXPECT_FALSE(d.use_core_approx);
}

TEST(Heuristic, AllIsolatedVertices) {
  // Nonzero node count, zero edges: every probe degenerates to zero and
  // the parallel degree argmax must not read past the (empty) adjacency.
  const Graph g = BuildUndirected({}, 500);
  const HeuristicDecision d = SelectOrdering(g);
  EXPECT_EQ(d.max_degree, 0u);
  EXPECT_EQ(d.max_degree_vertex, 0u);  // id tiebreak on all-equal degrees
  EXPECT_EQ(d.a, 0u);
  EXPECT_DOUBLE_EQ(d.common_fraction, 0.0);
  EXPECT_FALSE(d.use_core_approx);
}

TEST(Heuristic, ParallelArgMaxTiebreaksByLowestId) {
  // Two disjoint stars of equal degree: the reduction must pick the
  // lower-id center deterministically regardless of thread count.
  EdgeList edges;
  for (NodeId v = 0; v < 40; ++v) edges.emplace_back(50, 100 + v);
  for (NodeId v = 0; v < 40; ++v) edges.emplace_back(51, 200 + v);
  const Graph g = BuildUndirected(std::move(edges), 300);
  for (int rep = 0; rep < 8; ++rep) {
    const HeuristicDecision d = SelectOrdering(g);
    EXPECT_EQ(d.max_degree_vertex, 50u);
    EXPECT_EQ(d.max_degree, 40u);
  }
}

TEST(Heuristic, RecordsProbeTelemetry) {
  const Graph g = BuildGraph(StarGraph(100));
  TelemetryRegistry telemetry;
  const HeuristicDecision d =
      SelectOrdering(g, HeuristicConfig{}, &telemetry);
  EXPECT_DOUBLE_EQ(telemetry.Gauge("heuristic.max_degree"),
                   static_cast<double>(d.max_degree));
  EXPECT_DOUBLE_EQ(telemetry.Gauge("heuristic.a"),
                   static_cast<double>(d.a));
  EXPECT_DOUBLE_EQ(telemetry.Gauge("heuristic.use_core_approx"), 0.0);
}

TEST(Heuristic, SingleVertexGraph) {
  const Graph g = BuildUndirected({}, 1);
  const HeuristicDecision d = SelectOrdering(g);
  EXPECT_EQ(d.max_degree, 0u);
  EXPECT_FALSE(d.use_core_approx);
}

TEST(Heuristic, ARatioThresholdBoundary) {
  // A graph engineered so a/|V| straddles the threshold as config varies.
  EdgeList edges;
  const NodeId n = 1000;
  for (NodeId v = 1; v <= 10; ++v) edges.emplace_back(0, v);
  for (NodeId v = 11; v < 30; ++v) edges.emplace_back(1, v);
  const Graph g = BuildUndirected(std::move(edges), n);
  HeuristicConfig strict;
  strict.min_nodes = 100;
  strict.a_ratio_threshold = 0.5;          // unattainable
  strict.common_fraction_threshold = 1.1;  // unattainable
  EXPECT_FALSE(SelectOrdering(g, strict).use_core_approx);
  HeuristicConfig lenient = strict;
  lenient.a_ratio_threshold = 0.0001;
  EXPECT_TRUE(SelectOrdering(g, lenient).use_core_approx);
}

}  // namespace
}  // namespace pivotscale

// Tests for the synthetic graph generators and the dataset suite.
#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "exec/thread_budget.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace pivotscale {
namespace {

// ---------------------------------------------------------------- models

TEST(Generators, ErdosRenyiDeterministic) {
  EXPECT_EQ(ErdosRenyi(50, 0.2, 7), ErdosRenyi(50, 0.2, 7));
  EXPECT_NE(ErdosRenyi(50, 0.2, 7), ErdosRenyi(50, 0.2, 8));
}

TEST(Generators, ErdosRenyiEdgeCountNearExpectation) {
  const EdgeList edges = ErdosRenyi(200, 0.1, 3);
  const double expected = 0.1 * 200 * 199 / 2;
  EXPECT_NEAR(static_cast<double>(edges.size()), expected, expected * 0.2);
}

TEST(Generators, ErdosRenyiExtremes) {
  EXPECT_TRUE(ErdosRenyi(30, 0.0, 1).empty());
  EXPECT_EQ(ErdosRenyi(30, 1.0, 1).size(), 30u * 29 / 2);
}

TEST(Generators, GnMExactCount) {
  const EdgeList edges = GnM(100, 321, 5);
  EXPECT_EQ(edges.size(), 321u);
  std::set<Edge> unique(edges.begin(), edges.end());
  EXPECT_EQ(unique.size(), 321u);  // distinct
  for (const Edge& e : edges) EXPECT_LT(e.first, e.second);
}

// GnM as written with a std::set: the hash-set version must make the same
// draws, reject the same duplicates and return the same sorted list.
EdgeList SetReferenceGnM(NodeId n, EdgeId m, std::uint64_t seed) {
  Rng rng(seed);
  std::set<Edge> chosen;
  while (chosen.size() < m) {
    NodeId u = static_cast<NodeId>(rng.Below(n));
    NodeId v = static_cast<NodeId>(rng.Below(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    chosen.emplace(u, v);
  }
  return EdgeList(chosen.begin(), chosen.end());
}

TEST(Generators, GnMMatchesSetReference) {
  // Sparse, and complete (the last edges take many rejected draws).
  EXPECT_EQ(GnM(30000, 20000, 0x11ff), SetReferenceGnM(30000, 20000, 0x11ff));
  EXPECT_EQ(GnM(60, 1770, 3), SetReferenceGnM(60, 1770, 3));
  EXPECT_EQ(GnM(2, 1, 4), SetReferenceGnM(2, 1, 4));
}

TEST(Generators, GnMTooManyEdgesThrows) {
  EXPECT_THROW(GnM(4, 7, 1), std::invalid_argument);
}

TEST(Generators, RmatSizeAndBounds) {
  const EdgeList edges = Rmat(10, 8.0, 17);
  EXPECT_EQ(edges.size(), 4096u);  // 8 * 1024 / 2
  for (const Edge& e : edges) {
    EXPECT_LT(e.first, 1024u);
    EXPECT_LT(e.second, 1024u);
  }
}

// Rmat as a single serial loop with a three-way branch per bit: the
// chunked, branchless generator must reproduce it edge for edge.
EdgeList SerialReferenceRmat(int scale, double avg_degree, double a,
                             double b, double c, std::uint64_t seed) {
  const NodeId n = NodeId{1} << scale;
  const EdgeId m =
      static_cast<EdgeId>(avg_degree * static_cast<double>(n) / 2.0);
  Rng rng(seed);
  EdgeList edges;
  edges.reserve(m);
  for (EdgeId i = 0; i < m; ++i) {
    NodeId u = 0, v = 0;
    for (int bit = scale - 1; bit >= 0; --bit) {
      const double r = rng.NextDouble();
      if (r < a) {
      } else if (r < a + b) {
        v |= NodeId{1} << bit;
      } else if (r < a + b + c) {
        u |= NodeId{1} << bit;
      } else {
        u |= NodeId{1} << bit;
        v |= NodeId{1} << bit;
      }
    }
    edges.emplace_back(u, v);
  }
  return edges;
}

TEST(Generators, RmatIdenticalAtEveryTeamSize) {
  // 1,042,022 edges: 15 full chunks of 65,536 and a partial 16th.
  const EdgeList want =
      SerialReferenceRmat(17, 15.9, 0.50, 0.22, 0.19, 0xf41e);
  ASSERT_EQ(want.size(), 1'042'022u);
  ThreadBudget& budget = ThreadBudget::Global();
  const int saved = budget.capacity();
  for (int team = 1; team <= 4; ++team) {
    budget.SetCapacity(team);
    EXPECT_EQ(Rmat(17, 15.9, 0.50, 0.22, 0.19, 0xf41e), want)
        << "team " << team;
  }
  budget.SetCapacity(saved);
  // Graph500 constants, one partial chunk.
  EXPECT_EQ(Rmat(10, 8.0, 17), SerialReferenceRmat(10, 8.0, 0.57, 0.19,
                                                    0.19, 17));
}

TEST(Generators, RmatSkewedDegrees) {
  // Power-law-ish: the max degree should far exceed the average.
  const Graph g = BuildGraph(Rmat(12, 8.0, 23));
  EXPECT_GT(static_cast<double>(g.MaxDegree()),
            4.0 * g.AverageDegree());
}

TEST(Generators, RmatValidatesArguments) {
  EXPECT_THROW(Rmat(0, 4.0, 1), std::invalid_argument);
  EXPECT_THROW(Rmat(8, 4.0, 0.6, 0.3, 0.2, 1), std::invalid_argument);
}

TEST(Generators, BarabasiAlbertDegrees) {
  const NodeId n = 500, attach = 3;
  const Graph g = BuildGraph(BarabasiAlbert(n, attach, 31));
  EXPECT_EQ(g.NumNodes(), n);
  // Every non-seed vertex attaches to exactly `attach` targets.
  for (NodeId u = attach + 1; u < n; ++u) EXPECT_GE(g.Degree(u), attach);
  // Preferential attachment concentrates degree.
  EXPECT_GT(g.MaxDegree(), 4u * attach);
}

TEST(Generators, BarabasiAlbertValidates) {
  EXPECT_THROW(BarabasiAlbert(5, 0, 1), std::invalid_argument);
  EXPECT_THROW(BarabasiAlbert(3, 3, 1), std::invalid_argument);
}

TEST(Generators, StarHeavyHubsDominate) {
  const Graph g = BuildGraph(StarHeavy(1000, 5, 0.3, 41));
  for (NodeId h = 0; h < 5; ++h) EXPECT_GT(g.Degree(h), 100u);
}

TEST(Generators, CommunityModelPlantsDensity) {
  const Graph g =
      BuildGraph(CommunityModel(200, 30, 4, 8, 1.0, 43));
  // With intra_p = 1 every community is a clique, so triangles abound:
  // verify some vertex has two adjacent neighbors.
  bool found_triangle = false;
  for (NodeId u = 0; u < g.NumNodes() && !found_triangle; ++u) {
    const auto nbrs = g.Neighbors(u);
    for (std::size_t i = 0; i < nbrs.size() && !found_triangle; ++i)
      for (std::size_t j = i + 1; j < nbrs.size(); ++j)
        if (g.HasEdge(nbrs[i], nbrs[j])) {
          found_triangle = true;
          break;
        }
  }
  EXPECT_TRUE(found_triangle);
}

TEST(Generators, PlantCliquesCreatesClique) {
  EdgeList edges;
  PlantCliques(&edges, 50, 1, 10, 10, 47);
  const Graph g = BuildUndirected(std::move(edges), 50);
  // Exactly one 10-clique planted: 45 edges, members have degree 9.
  EXPECT_EQ(g.NumUndirectedEdges(), 45u);
  int members = 0;
  for (NodeId u = 0; u < 50; ++u)
    if (g.Degree(u) == 9) ++members;
  EXPECT_EQ(members, 10);
}

TEST(Generators, PlantCliquesValidates) {
  EdgeList edges;
  EXPECT_THROW(PlantCliques(&edges, 5, 1, 6, 6, 1), std::invalid_argument);
  EXPECT_THROW(PlantCliques(&edges, 5, 1, 1, 1, 1), std::invalid_argument);
}

TEST(Generators, ShuffleIsAnIsomorphism) {
  // Relabeling must preserve the degree multiset and the edge count, and be
  // deterministic per seed.
  EdgeList edges = Rmat(8, 6.0, 51);
  EdgeList shuffled = edges;
  ShuffleVertexIds(&shuffled, 256, 7);
  ASSERT_EQ(edges.size(), shuffled.size());

  const Graph a = BuildUndirected(std::move(edges), 256);
  EdgeList shuffled_copy = shuffled;
  const Graph b = BuildUndirected(std::move(shuffled), 256);
  EXPECT_EQ(a.NumDirectedEdges(), b.NumDirectedEdges());

  std::vector<EdgeId> da, db;
  for (NodeId u = 0; u < 256; ++u) {
    da.push_back(a.Degree(u));
    db.push_back(b.Degree(u));
  }
  std::sort(da.begin(), da.end());
  std::sort(db.begin(), db.end());
  EXPECT_EQ(da, db);

  EdgeList again = Rmat(8, 6.0, 51);
  ShuffleVertexIds(&again, 256, 7);
  EXPECT_EQ(again, shuffled_copy);
}

TEST(Generators, ShuffledCliqueCountsUnchanged) {
  // Clique counts are isomorphism-invariant; the shuffle must not change
  // them (this also guards against out-of-range relabels).
  EdgeList edges = GnM(60, 300, 53);
  PlantCliques(&edges, 60, 2, 6, 9, 54);
  EdgeList shuffled = edges;
  ShuffleVertexIds(&shuffled, 60, 11);
  const Graph a = BuildUndirected(std::move(edges), 60);
  const Graph b = BuildUndirected(std::move(shuffled), 60);
  // Triangle count via neighborhood intersection on both.
  auto triangles = [](const Graph& g) {
    std::uint64_t count = 0;
    for (NodeId u = 0; u < g.NumNodes(); ++u)
      for (NodeId v : g.Neighbors(u)) {
        if (v <= u) continue;
        for (NodeId w : g.Neighbors(v))
          if (w > v && g.HasEdge(u, w)) ++count;
      }
    return count;
  };
  EXPECT_EQ(triangles(a), triangles(b));
}

// ---------------------------------------------------------------- reference

TEST(Generators, CompleteGraphEdges) {
  EXPECT_EQ(CompleteGraph(6).size(), 15u);
  EXPECT_TRUE(CompleteGraph(1).empty());
}

TEST(Generators, PathCycleStar) {
  EXPECT_EQ(PathGraph(5).size(), 4u);
  EXPECT_EQ(CycleGraph(5).size(), 5u);
  EXPECT_EQ(StarGraph(5).size(), 4u);
}

TEST(Generators, CompleteBipartiteTriangleFree) {
  const Graph g = BuildGraph(CompleteBipartite(3, 4));
  EXPECT_EQ(g.NumUndirectedEdges(), 12u);
  // Bipartite: no triangles.
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const auto nbrs = g.Neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      for (std::size_t j = i + 1; j < nbrs.size(); ++j)
        EXPECT_FALSE(g.HasEdge(nbrs[i], nbrs[j]));
  }
}

TEST(Generators, TuranGraphStructure) {
  // T(9, 3): 3 parts of 3; each vertex adjacent to the 6 outside its part.
  const Graph g = BuildGraph(TuranGraph(9, 3));
  for (NodeId u = 0; u < 9; ++u) EXPECT_EQ(g.Degree(u), 6u);
}

// ---------------------------------------------------------------- datasets

TEST(Datasets, SuiteHasEightGraphsInOrder) {
  const auto& names = DatasetNames();
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names.front(), "dblp-like");
  EXPECT_EQ(names.back(), "friendster-like");
}

TEST(Datasets, Deterministic) {
  const Dataset a = MakeDataset("dblp-like", 0.1);
  const Dataset b = MakeDataset("dblp-like", 0.1);
  EXPECT_EQ(a.graph.NumNodes(), b.graph.NumNodes());
  EXPECT_EQ(a.graph.NumDirectedEdges(), b.graph.NumDirectedEdges());
  EXPECT_EQ(a.graph.neighbor_array(), b.graph.neighbor_array());
}

TEST(Datasets, FingerprintsMatchRecorded) {
  // Recorded before the generators went parallel. friendster-like has two
  // RMAT chunks at this scale, so the second starts from a jumped state.
  struct Fingerprint {
    const char* name;
    NodeId n;
    EdgeId m;
    std::uint64_t hash;
  };
  const Fingerprint recorded[] = {
      {"dblp-like", 600, 4459, 0xf4ee6d8024a83cc4ULL},
      {"skitter-like", 4096, 23585, 0xc3a8e0248298d7edULL},
      {"baidu-like", 4096, 28230, 0x0197788298cd44ccULL},
      {"wikitalk-like", 3000, 22390, 0x799bc09d20123d30ULL},
      {"orkut-like", 1024, 11226, 0xcce8d3bc785239ddULL},
      {"livejournal-like", 1500, 7647, 0x8e228b6a4969210bULL},
      {"webedu-like", 5000, 16834, 0x1b620fab157ac151ULL},
      {"friendster-like", 8192, 70993, 0x40e43e167ae895d1ULL},
  };
  ASSERT_EQ(std::size(recorded), DatasetNames().size());
  for (const Fingerprint& want : recorded) {
    const Graph g = MakeDataset(want.name, 0.05).graph;
    std::uint64_t hash = 0;
    for (const EdgeId o : g.offsets()) hash = SplitMix64::Mix(hash ^ o);
    for (const NodeId v : g.neighbor_array())
      hash = SplitMix64::Mix(hash ^ v);
    EXPECT_EQ(g.NumNodes(), want.n) << want.name;
    EXPECT_EQ(g.NumUndirectedEdges(), want.m) << want.name;
    EXPECT_EQ(hash, want.hash) << want.name;
  }
}

TEST(Datasets, UnknownNameThrows) {
  EXPECT_THROW(MakeDataset("orkut", 1.0), std::invalid_argument);
  EXPECT_THROW(MakeDataset("dblp-like", 0.0), std::invalid_argument);
  EXPECT_THROW(MakeDataset("dblp-like", 5.0), std::invalid_argument);
}

TEST(Datasets, AllBuildAtSmallScale) {
  for (const auto& name : DatasetNames()) {
    const Dataset d = MakeDataset(name, 0.05);
    EXPECT_GT(d.graph.NumNodes(), 0u) << name;
    EXPECT_GT(d.graph.NumUndirectedEdges(), 0u) << name;
    EXPECT_TRUE(d.graph.undirected()) << name;
    EXPECT_EQ(d.name, name);
    EXPECT_FALSE(d.paper_analog.empty()) << name;
  }
}

TEST(Datasets, ScaleGrowsGraphs) {
  const Dataset small = MakeDataset("wikitalk-like", 0.05);
  const Dataset large = MakeDataset("wikitalk-like", 0.2);
  EXPECT_GT(large.graph.NumNodes(), small.graph.NumNodes());
}

}  // namespace
}  // namespace pivotscale

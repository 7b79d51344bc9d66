// Tests for the graph substrate: CSR construction, invariants,
// directionalization, and file I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "exec/thread_budget.h"
#include "graph/builder.h"
#include "graph/dag.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "order/degree_order.h"
#include "util/rng.h"

namespace pivotscale {
namespace {

Graph Triangle() { return BuildGraph({{0, 1}, {1, 2}, {0, 2}}); }

// ---------------------------------------------------------------- builder

TEST(Builder, TriangleBasics) {
  const Graph g = Triangle();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumUndirectedEdges(), 3u);
  EXPECT_EQ(g.NumDirectedEdges(), 6u);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(g.Degree(u), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));  // symmetrized
  EXPECT_TRUE(g.undirected());
}

TEST(Builder, RemovesSelfLoops) {
  const Graph g = BuildGraph({{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(g.NumUndirectedEdges(), 1u);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(Builder, RemovesDuplicates) {
  const Graph g = BuildGraph({{0, 1}, {0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.NumUndirectedEdges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(Builder, AdjacencySorted) {
  const Graph g = BuildGraph({{0, 5}, {0, 2}, {0, 9}, {0, 1}});
  const auto nbrs = g.Neighbors(0);
  for (std::size_t i = 1; i < nbrs.size(); ++i)
    EXPECT_LT(nbrs[i - 1], nbrs[i]);
}

TEST(Builder, ExplicitNodeCountAddsIsolated) {
  const Graph g = BuildUndirected({{0, 1}}, 10);
  EXPECT_EQ(g.NumNodes(), 10u);
  EXPECT_EQ(g.Degree(9), 0u);
}

TEST(Builder, EndpointBeyondNodeCountThrows) {
  EXPECT_THROW(BuildUndirected({{0, 10}}, 5), std::invalid_argument);
}

TEST(Builder, MaxNodeIdEndpointThrows) {
  // Inferring n as id + 1 in 32 bits wrapped to 0, and the degree count
  // then wrote out of bounds.
  constexpr NodeId kMax = std::numeric_limits<NodeId>::max();
  EXPECT_THROW(BuildGraph({{kMax, 0}, {1, 2}}), std::invalid_argument);
  EXPECT_THROW(BuildGraph({{0, kMax}}), std::invalid_argument);
  EXPECT_THROW(BuildGraph({{0, kMax}}, 10), std::invalid_argument);
}

TEST(Builder, EmptyGraph) {
  const Graph g = BuildGraph({});
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumDirectedEdges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
}

TEST(Builder, OffsetsConsistent) {
  const Graph g = BuildGraph(Rmat(8, 4.0, 7));
  const auto& offsets = g.offsets();
  ASSERT_EQ(offsets.size(), g.NumNodes() + 1u);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), g.NumDirectedEdges());
  for (std::size_t i = 1; i < offsets.size(); ++i)
    EXPECT_LE(offsets[i - 1], offsets[i]);
}

TEST(Builder, SymmetryInvariant) {
  const Graph g = BuildGraph(Rmat(8, 4.0, 11));
  for (NodeId u = 0; u < g.NumNodes(); ++u)
    for (NodeId v : g.Neighbors(u)) EXPECT_TRUE(g.HasEdge(v, u));
}

TEST(Builder, AverageDegree) {
  const Graph g = Triangle();
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 1.0);  // 3 edges / 3 vertices
}

// The sort-based build the counting-sort builder replaced: double the
// list, drop self-loops, sort, de-duplicate, one pass fills the rows.
Graph SortedReferenceBuild(EdgeList edges, NodeId num_nodes) {
  const std::size_t original = edges.size();
  edges.reserve(2 * original);
  for (std::size_t i = 0; i < original; ++i)
    edges.emplace_back(edges[i].second, edges[i].first);
  std::erase_if(edges, [](const Edge& e) { return e.first == e.second; });
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  NodeId n = num_nodes;
  if (n == 0)
    for (const Edge& e : edges) n = std::max(n, e.first + 1);
  std::vector<EdgeId> offsets(std::size_t{n} + 1, 0);
  std::vector<NodeId> neighbors;
  for (const Edge& e : edges) {
    ++offsets[e.first + 1];
    neighbors.push_back(e.second);
  }
  for (NodeId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  return Graph(std::move(offsets), std::move(neighbors), true);
}

// Random pairs over [0, n): every edge repeated in both orientations now
// and then, and a self-loop every so often.
EdgeList NoisyEdges(NodeId n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  EdgeList edges;
  for (std::size_t i = 0; i < m; ++i) {
    const auto u = static_cast<NodeId>(rng.Below(n));
    const auto v = static_cast<NodeId>(rng.Below(n));
    edges.emplace_back(u, v);
    if (i % 5 == 0) edges.emplace_back(v, u);
    if (i % 7 == 0) edges.emplace_back(u, v);
    if (i % 11 == 0) edges.emplace_back(u, u);
  }
  return edges;
}

TEST(Builder, ParallelBuildMatchesSortedReference) {
  struct Case {
    const char* name;
    EdgeList edges;
    NodeId num_nodes;
  };
  std::vector<Case> cases;
  cases.push_back({"noisy small", NoisyEdges(50, 400, 1), 0});
  // More edges than one scatter chunk and more vertices than buckets.
  cases.push_back({"noisy large", NoisyEdges(5000, 150'000, 2), 0});
  // One row far wider than a vertex bucket, with repeats.
  EdgeList hub = StarGraph(20'000);
  const EdgeList again = StarGraph(20'000);
  hub.insert(hub.end(), again.rbegin(), again.rend());
  cases.push_back({"hub", std::move(hub), 0});
  cases.push_back({"trailing isolated", NoisyEdges(100, 300, 3), 5000});
  cases.push_back({"empty", {}, 0});
  cases.push_back({"empty, explicit n", {}, 17});
  cases.push_back({"self-loops only", {{3, 3}, {9, 9}}, 0});
  // friendster-like RMAT (the suite's parameters at a small scale).
  cases.push_back({"fr-like rmat", Rmat(14, 18.0, 0.50, 0.22, 0.19, 0xf41e),
                   NodeId{1} << 14});

  ThreadBudget& budget = ThreadBudget::Global();
  const int saved = budget.capacity();
  for (const int team : {1, 4}) {
    budget.SetCapacity(team);
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + ", team " + std::to_string(team));
      const Graph want = SortedReferenceBuild(c.edges, c.num_nodes);
      const Graph got = BuildGraph(c.edges, c.num_nodes);
      EXPECT_EQ(got.NumNodes(), want.NumNodes());
      EXPECT_EQ(got.offsets(), want.offsets());
      EXPECT_EQ(got.neighbor_array(), want.neighbor_array());
      EXPECT_TRUE(got.undirected());
    }
  }
  budget.SetCapacity(saved);
}

TEST(Graph, MaxDegree) {
  const Graph g = BuildGraph(StarGraph(6));
  EXPECT_EQ(g.MaxDegree(), 5u);
}

TEST(Graph, MismatchedCsrArraysThrow) {
  std::vector<EdgeId> offsets = {0, 2};
  std::vector<NodeId> neighbors = {1};
  EXPECT_THROW(Graph(std::move(offsets), std::move(neighbors), true),
               std::invalid_argument);
}

// ---------------------------------------------------------------- dag

TEST(Dag, IsPermutationAcceptsAndRejects) {
  EXPECT_TRUE(IsPermutation(std::vector<NodeId>{2, 0, 1}));
  EXPECT_FALSE(IsPermutation(std::vector<NodeId>{0, 0, 1}));
  EXPECT_FALSE(IsPermutation(std::vector<NodeId>{0, 3, 1}));
  EXPECT_TRUE(IsPermutation(std::vector<NodeId>{}));
}

TEST(Dag, EdgeCountHalved) {
  const Graph g = BuildGraph(Rmat(8, 6.0, 3));
  const Ordering order = DegreeOrdering(g);
  const Graph dag = Directionalize(g, order.ranks);
  EXPECT_EQ(dag.NumDirectedEdges(), g.NumUndirectedEdges());
  EXPECT_FALSE(dag.undirected());
}

TEST(Dag, EdgesPointLowToHighRank) {
  const Graph g = BuildGraph(Rmat(7, 6.0, 5));
  const Ordering order = DegreeOrdering(g);
  const Graph dag = Directionalize(g, order.ranks);
  for (NodeId u = 0; u < dag.NumNodes(); ++u)
    for (NodeId v : dag.Neighbors(u))
      EXPECT_LT(order.ranks[u], order.ranks[v]);
}

TEST(Dag, FigureTwoExample) {
  // The paper's Figure 2: a 7-vertex graph directionalized by degree order.
  // Vertex 0 has degree 4 (neighbors 1, 2, 3, 4 in the figure's spirit);
  // here we just verify out-degrees sum to |E| and acyclicity via ranks.
  const Graph g = BuildGraph(
      {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {3, 4}, {4, 5}, {5, 6}});
  const Ordering order = DegreeOrdering(g);
  const Graph dag = Directionalize(g, order.ranks);
  EdgeId total_out = 0;
  for (NodeId u = 0; u < dag.NumNodes(); ++u) total_out += dag.Degree(u);
  EXPECT_EQ(total_out, g.NumUndirectedEdges());
}

TEST(Dag, RejectsBadRanks) {
  const Graph g = Triangle();
  EXPECT_THROW(Directionalize(g, std::vector<NodeId>{0, 0, 1}),
               std::invalid_argument);
  EXPECT_THROW(Directionalize(g, std::vector<NodeId>{0, 1}),
               std::invalid_argument);
}

TEST(Dag, CompleteGraphMaxOutDegree) {
  // K_5 under any total order: out-degrees are 4,3,2,1,0.
  const Graph g = BuildGraph(CompleteGraph(5));
  const Graph dag = Directionalize(g, std::vector<NodeId>{0, 1, 2, 3, 4});
  EXPECT_EQ(MaxOutDegree(dag), 4u);
}

// ---------------------------------------------------------------- io

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "pivotscale_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(IoTest, EdgeListRoundTrip) {
  const EdgeList edges = Rmat(7, 4.0, 9);
  WriteEdgeList(Path("g.el"), edges);
  const EdgeList back = ReadEdgeList(Path("g.el"));
  EXPECT_EQ(edges, back);
}

TEST_F(IoTest, EdgeListSkipsComments) {
  {
    std::FILE* f = std::fopen(Path("c.el").c_str(), "w");
    std::fputs("# comment\n% other comment\n0 1\n\n2 3\n", f);
    std::fclose(f);
  }
  const EdgeList edges = ReadEdgeList(Path("c.el"));
  EXPECT_EQ(edges, (EdgeList{{0, 1}, {2, 3}}));
}

TEST_F(IoTest, MalformedLineThrows) {
  {
    std::FILE* f = std::fopen(Path("bad.el").c_str(), "w");
    std::fputs("0 x\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(ReadEdgeList(Path("bad.el")), std::runtime_error);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(ReadEdgeList(Path("nope.el")), std::runtime_error);
}

TEST_F(IoTest, BinaryRoundTrip) {
  const Graph g = BuildGraph(Rmat(8, 5.0, 13));
  WriteBinaryGraph(Path("g.psg"), g);
  const Graph back = ReadBinaryGraph(Path("g.psg"));
  EXPECT_EQ(back.NumNodes(), g.NumNodes());
  EXPECT_EQ(back.NumDirectedEdges(), g.NumDirectedEdges());
  EXPECT_EQ(back.undirected(), g.undirected());
  EXPECT_EQ(back.offsets(), g.offsets());
  EXPECT_EQ(back.neighbor_array(), g.neighbor_array());
}

TEST_F(IoTest, BinaryRejectsWrongMagic) {
  {
    std::FILE* f = std::fopen(Path("bad.psg").c_str(), "w");
    std::fputs("NOPE", f);
    std::fclose(f);
  }
  EXPECT_THROW(ReadBinaryGraph(Path("bad.psg")), std::runtime_error);
}

TEST_F(IoTest, LoadGraphDispatchesOnExtension) {
  const Graph g = BuildGraph(CompleteGraph(4));
  WriteBinaryGraph(Path("g.psg"), g);
  WriteEdgeList(Path("g.el"), CompleteGraph(4));
  const Graph from_bin = LoadGraph(Path("g.psg"));
  const Graph from_text = LoadGraph(Path("g.el"));
  EXPECT_EQ(from_bin.NumUndirectedEdges(), 6u);
  EXPECT_EQ(from_text.NumUndirectedEdges(), 6u);
}

}  // namespace
}  // namespace pivotscale

// Correctness tests for the pivot counting core: every subgraph structure
// and counting mode is cross-validated against brute force on reference
// graphs and randomized property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <tuple>

#include "graph/builder.h"
#include "graph/dag.h"
#include "graph/generators.h"
#include "order/core_order.h"
#include "pivot/bitmap_counter.h"
#include "pivot/count.h"
#include "pivot/count_on.h"
#include "pivot/pivoter.h"
#include "pivot/pivotscale.h"
#include "pivot/subgraph_bitmap.h"
#include "pivot/subgraph_remap.h"
#include "test_helpers.h"
#include "util/binomial.h"

namespace pivotscale {
namespace {

using testing_helpers::BruteForceCount;
using testing_helpers::kAllSubgraphKinds;
using testing_helpers::BruteForcePerVertex;
using testing_helpers::KernelTotals;
using testing_helpers::MakeDag;
using testing_helpers::RunKernel;

template <typename Policy>
using Remap = PivotCounter<RemapSubgraph, NoStats, Policy>;
template <typename Policy>
using Bitmap = BitmapCounter<NoStats, Policy>;

BigCount Count(const Graph& g, std::uint32_t k, SubgraphKind structure,
               OrderingKind order = OrderingKind::kCore) {
  const Graph dag = MakeDag(g, order);
  CountOptions options;
  options.k = k;
  return CountCliquesOn(dag, options, structure).total;
}

// ---------------------------------------------------------------- closed forms

TEST(Pivoter, CompleteGraphAllStructures) {
  const Graph g = BuildGraph(CompleteGraph(10));
  for (const SubgraphKind structure : kAllSubgraphKinds) {
    for (std::uint32_t k = 1; k <= 10; ++k) {
      EXPECT_EQ(Count(g, k, structure).value(), BinomialChoose(10, k))
          << SubgraphKindName(structure) << " k=" << k;
    }
  }
}

TEST(Pivoter, PathAndCycleHaveNoTriangles) {
  const Graph path = BuildGraph(PathGraph(20));
  const Graph cycle = BuildGraph(CycleGraph(20));
  EXPECT_EQ(Count(path, 3, SubgraphKind::kBitmap).value(),
            static_cast<uint128>(0));
  EXPECT_EQ(Count(cycle, 3, SubgraphKind::kBitmap).value(),
            static_cast<uint128>(0));
  EXPECT_EQ(Count(path, 2, SubgraphKind::kBitmap).value(),
            static_cast<uint128>(19));
}

TEST(Pivoter, StarGraphEdgesOnly) {
  const Graph g = BuildGraph(StarGraph(12));
  EXPECT_EQ(Count(g, 2, SubgraphKind::kBitmap).value(),
            static_cast<uint128>(11));
  EXPECT_EQ(Count(g, 3, SubgraphKind::kBitmap).value(),
            static_cast<uint128>(0));
}

TEST(Pivoter, TuranClosedForm) {
  // T(12, 4) with balanced parts of 3: k-cliques pick k parts, one vertex
  // each: C(4, k) * 3^k.
  const Graph g = BuildGraph(TuranGraph(12, 4));
  for (std::uint32_t k = 1; k <= 5; ++k) {
    uint128 expected = BinomialChoose(4, k);
    for (std::uint32_t i = 0; i < k; ++i) expected *= 3;
    EXPECT_EQ(Count(g, k, SubgraphKind::kBitmap).value(), expected) << k;
  }
}

TEST(Pivoter, CompleteBipartiteNoTriangles) {
  const Graph g = BuildGraph(CompleteBipartite(5, 7));
  EXPECT_EQ(Count(g, 2, SubgraphKind::kBitmap).value(),
            static_cast<uint128>(35));
  EXPECT_EQ(Count(g, 3, SubgraphKind::kBitmap).value(),
            static_cast<uint128>(0));
}

TEST(Pivoter, KEqualsOneCountsVertices) {
  const Graph g = BuildGraph(Rmat(7, 4.0, 3));
  EXPECT_EQ(Count(g, 1, SubgraphKind::kBitmap).value(),
            static_cast<uint128>(g.NumNodes()));
}

TEST(Pivoter, KEqualsTwoCountsEdges) {
  const Graph g = BuildGraph(Rmat(7, 4.0, 5));
  EXPECT_EQ(Count(g, 2, SubgraphKind::kBitmap).value(),
            static_cast<uint128>(g.NumUndirectedEdges()));
}

TEST(Pivoter, EmptyAndTinyGraphs) {
  const Graph empty = BuildGraph({});
  const Graph lone = BuildUndirected({}, 1);
  CountOptions options;
  options.k = 3;
  EXPECT_EQ(CountCliques(Directionalize(empty, std::vector<NodeId>{}),
                         options)
                .total.value(),
            static_cast<uint128>(0));
  EXPECT_EQ(
      CountCliques(Directionalize(lone, std::vector<NodeId>{0}), options)
          .total.value(),
      static_cast<uint128>(0));
}

// ---------------------------------------------------------------- property sweep

// (n, edge probability, seed, k)
using SweepParam = std::tuple<int, double, int, int>;

class PivoterSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PivoterSweep, MatchesBruteForceOnAllStructuresAndOrderings) {
  const auto [n, p, seed, k] = GetParam();
  const Graph g = BuildGraph(
      ErdosRenyi(static_cast<NodeId>(n), p, static_cast<std::uint64_t>(seed)));
  if (g.NumNodes() == 0) GTEST_SKIP() << "degenerate empty instance";
  const std::uint64_t expected =
      BruteForceCount(g, static_cast<std::uint32_t>(k));

  for (auto order : {OrderingKind::kDegree, OrderingKind::kCore,
                     OrderingKind::kKCore}) {
    for (const SubgraphKind structure : kAllSubgraphKinds) {
      EXPECT_EQ(
          Count(g, static_cast<std::uint32_t>(k), structure, order).value(),
          static_cast<uint128>(expected))
          << "structure=" << SubgraphKindName(structure)
          << " n=" << n << " p=" << p << " seed=" << seed << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, PivoterSweep,
    ::testing::Combine(::testing::Values(8, 14, 22, 30),
                       ::testing::Values(0.2, 0.45, 0.7),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(2, 3, 4, 5, 6)));

// ------------------------------------------------- bitmap vs remap kernel

// (n, edge probability, seed)
using KernelParam = std::tuple<int, double, int>;

class KernelSweep : public ::testing::TestWithParam<KernelParam> {};

TEST_P(KernelSweep, BitmapMatchesRemapAndBruteForceInEveryMode) {
  const auto [n, p, seed] = GetParam();
  const Graph g = BuildGraph(
      ErdosRenyi(static_cast<NodeId>(n), p, static_cast<std::uint64_t>(seed)));
  if (g.NumNodes() == 0) GTEST_SKIP() << "degenerate empty instance";
  const Graph dag = MakeDag(g, OrderingKind::kCore);

  for (std::uint32_t k = 1; k <= 7; ++k) {
    const auto truth = static_cast<uint128>(BruteForceCount(g, k));
    for (const bool early : {true, false}) {
      const KernelTotals remap =
          RunKernel<Remap>(dag, CountMode::kSingleK, k, false, early);
      const KernelTotals bitmap =
          RunKernel<Bitmap>(dag, CountMode::kSingleK, k, false, early);
      EXPECT_EQ(remap.total.value(), truth) << "k=" << k;
      EXPECT_EQ(bitmap.total.value(), truth) << "k=" << k;
    }
    const KernelTotals remap_upto =
        RunKernel<Remap>(dag, CountMode::kAllUpToK, k);
    const KernelTotals bitmap_upto =
        RunKernel<Bitmap>(dag, CountMode::kAllUpToK, k);
    EXPECT_EQ(bitmap_upto.per_size, remap_upto.per_size) << "k=" << k;
    EXPECT_EQ(bitmap_upto.total.value(), truth) << "k=" << k;
  }

  const KernelTotals remap_all = RunKernel<Remap>(dag, CountMode::kAllK, 3);
  const KernelTotals bitmap_all = RunKernel<Bitmap>(dag, CountMode::kAllK, 3);
  EXPECT_EQ(bitmap_all.per_size, remap_all.per_size);

  for (const std::uint32_t k : {1u, 2u, 3u, 5u}) {
    const auto truth = BruteForcePerVertex(g, k);
    const KernelTotals remap =
        RunKernel<Remap>(dag, CountMode::kSingleK, k, true);
    const KernelTotals bitmap =
        RunKernel<Bitmap>(dag, CountMode::kSingleK, k, true);
    EXPECT_EQ(bitmap.per_vertex, remap.per_vertex) << "k=" << k;
    for (NodeId v = 0; v < g.NumNodes(); ++v)
      EXPECT_EQ(bitmap.per_vertex[v].value(), static_cast<uint128>(truth[v]))
          << "k=" << k << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, KernelSweep,
    ::testing::Combine(::testing::Values(12, 30, 70),
                       ::testing::Values(0.15, 0.5, 0.8),
                       ::testing::Values(1, 2)));

// Narrowing (NarrowRows): a random symmetric matrix of `words` words per
// row (W, or any width for W = kWide) and random member sets, each
// re-indexed at its minimum width and at `words`. Every bit of the narrowed
// matrix is checked against the source matrix, the id map against the
// members in ascending order, and the rows past the last member against
// being written.
template <std::uint32_t W>
void CheckNarrowRows(std::mt19937_64& rng, std::uint32_t words = W) {
  const std::uint32_t n = 64 * words;
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(n) * words, 0);
  auto bit = [](const std::uint64_t* row, std::uint32_t j) {
    return (row[j / 64] >> (j % 64)) & 1;
  };
  std::bernoulli_distribution edge(0.3);
  for (std::uint32_t u = 0; u < n; ++u)
    for (std::uint32_t v = u + 1; v < n; ++v)
      if (edge(rng)) {
        rows[u * words + v / 64] |= std::uint64_t{1} << (v % 64);
        rows[v * words + u / 64] |= std::uint64_t{1} << (u % 64);
      }
  std::vector<NodeId> ids(n);
  for (std::uint32_t u = 0; u < n; ++u) ids[u] = 1000 + 7 * u;

  std::vector<std::uint32_t> sizes = {0, 1, 63, 64, 65, n - 1, n};
  if (words >= 2) sizes.insert(sizes.end(), {127, 128, 129});
  if (words >= 5) sizes.insert(sizes.end(), {255, 256, 257, 320});
  for (int extra = 0; extra < 8; ++extra)
    sizes.push_back(static_cast<std::uint32_t>(rng() % (n + 1)));
  for (const std::uint32_t size : sizes) {
    if (size > n) continue;
    std::vector<std::uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    std::shuffle(all.begin(), all.end(), rng);
    std::vector<std::uint32_t> members(all.begin(), all.begin() + size);
    std::sort(members.begin(), members.end());
    std::vector<std::uint64_t> set(words, 0);
    for (const std::uint32_t u : members)
      set[u / 64] |= std::uint64_t{1} << (u % 64);

    for (const std::uint32_t out_words : {(size + 63) / 64, words}) {
      constexpr std::uint64_t kUnwritten = 0x5a5a5a5a5a5a5a5aULL;
      std::vector<std::uint64_t> out(
          static_cast<std::size_t>(size + 1) * out_words + 1, kUnwritten);
      std::vector<NodeId> out_ids(size + 1, 0);
      NarrowRows<W>(rows.data(), set.data(), ids.data(), out_words,
                    out.data(), out_ids.data(), words);
      for (std::uint32_t i = 0; i < size; ++i) {
        EXPECT_EQ(out_ids[i], ids[members[i]]) << "W=" << words << " i=" << i;
        const std::uint64_t* out_row = out.data() + i * out_words;
        const std::uint64_t* src_row = rows.data() + members[i] * words;
        for (std::uint32_t j = 0; j < 64 * out_words; ++j) {
          const std::uint64_t want = j < size ? bit(src_row, members[j]) : 0;
          ASSERT_EQ(bit(out_row, j), want)
              << "W=" << words << " |P|=" << size << " words=" << out_words
              << " i=" << i << " j=" << j;
        }
      }
      for (std::size_t w = std::size_t{size} * out_words; w < out.size(); ++w)
        EXPECT_EQ(out[w], kUnwritten) << "W=" << words << " |P|=" << size;
      EXPECT_EQ(out_ids[size], 0u);
    }
  }
}

TEST(Narrowing, NarrowRowsMatchesTheSourceMatrixBitForBit) {
  std::mt19937_64 rng(20250417);
  for (int round = 0; round < 4; ++round) {
    CheckNarrowRows<1>(rng);
    CheckNarrowRows<2>(rng);
    CheckNarrowRows<3>(rng);
    CheckNarrowRows<4>(rng);
    CheckNarrowRows<kWide>(rng, 5);
    CheckNarrowRows<kWide>(rng, 9);
  }
}

// ---------------------------------------------------------------- bitmap build

// SubgraphBitmap's member filter slot of `id`.
std::uint32_t FilterSlot(NodeId id) {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ULL) >> 52);
}

TEST(SubgraphBitmapBuild, MatrixIsTheInducedAdjacencyDespiteFilterSlots) {
  // Vertex 0 is a hub over 1..kHub, more members than the member filter
  // has slots, so the filter saturates. Vertex kHub + 1 roots a small
  // subgraph whose members also point at non-members sharing their filter
  // slots: those wedges pass the filter, and the hash probe turns them
  // away. The DAG keeps the id order, so every chosen id stays as it is.
  constexpr NodeId kHub = 4200;
  constexpr NodeId kN = 1 << 16;
  constexpr NodeId kRoot = kHub + 1;
  constexpr NodeId kMembers = 40;
  std::mt19937_64 rng(20250611);
  EdgeList edges;
  for (NodeId v = 1; v <= kHub; ++v) edges.push_back({0, v});
  std::uniform_int_distribution<NodeId> hub_member(1, kHub);
  std::uniform_int_distribution<NodeId> any(1, kN - 1);
  for (int i = 0; i < 20000; ++i) {
    edges.push_back({hub_member(rng), hub_member(rng)});
    edges.push_back({hub_member(rng), any(rng)});
  }
  std::vector<bool> member(kN, false);
  std::vector<bool> slot_taken(4096, false);
  for (NodeId i = 0; i < kMembers; ++i) {
    const NodeId m = kRoot + 1 + 7 * i;
    member[m] = true;
    slot_taken[FilterSlot(m)] = true;
    edges.push_back({kRoot, m});
    for (NodeId j = 0; j < i; ++j)
      if (rng() % 3 == 0) edges.push_back({kRoot + 1 + 7 * j, m});
  }
  NodeId colliding = 0;
  for (NodeId x = kRoot + 7 * kMembers + 1; x < kN; ++x) {
    if (member[x] || !slot_taken[FilterSlot(x)]) continue;
    edges.push_back({kRoot + 1 + 7 * (colliding % kMembers), x});
    ++colliding;
  }
  ASSERT_GT(colliding, 2 * kMembers);
  const Graph g = BuildUndirected(std::move(edges), kN);
  std::vector<NodeId> ranks(kN);
  std::iota(ranks.begin(), ranks.end(), NodeId{0});
  const Graph dag = Directionalize(g, ranks);
  ASSERT_EQ(dag.Degree(0), kHub);
  ASSERT_EQ(dag.Degree(kRoot), kMembers);

  SubgraphBitmap sg;
  sg.Attach(dag);
  const auto bit = [&](std::uint32_t u, std::uint32_t w) {
    return (sg.Row(u)[w / 64] >> (w % 64) & 1) != 0;
  };
  for (NodeId root = 0; root < kN; ++root) {
    sg.Build(root);
    const auto nbrs = dag.Neighbors(root);
    ASSERT_EQ(sg.NumVertices(), nbrs.size()) << "root=" << root;
    const std::uint32_t n = sg.NumVertices();
    for (std::uint32_t u = 0; u < n; ++u) {
      ASSERT_EQ(sg.OrigIds()[u], nbrs[u]) << "root=" << root;
      for (std::uint32_t w = 0; w < 64 * sg.Words(); ++w) {
        const bool want = w < n && (dag.HasEdge(nbrs[u], nbrs[w]) ||
                                    dag.HasEdge(nbrs[w], nbrs[u]));
        ASSERT_EQ(bit(u, w), want)
            << "root=" << root << " u=" << u << " w=" << w;
      }
    }
  }
}

// ---------------------------------------------------------------- all-k mode

TEST(PivoterAllK, PerSizeMatchesSingleKCounts) {
  const Graph g = BuildGraph(ErdosRenyi(40, 0.4, 99));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  CountOptions all;
  all.mode = CountMode::kAllK;
  all.k = 3;
  const CountResult all_result = CountCliques(dag, all);
  for (std::uint32_t k = 1; k <= 8; ++k) {
    CountOptions single;
    single.k = k;
    EXPECT_EQ(all_result.per_size[k], CountCliques(dag, single).total) << k;
  }
}

TEST(PivoterAllK, CompleteGraphPerSize) {
  const Graph g = BuildGraph(CompleteGraph(12));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  CountOptions options;
  options.mode = CountMode::kAllK;
  const CountResult result = CountCliques(dag, options);
  for (std::uint32_t s = 1; s <= 12; ++s)
    EXPECT_EQ(result.per_size[s], BigCount(BinomialChoose(12, s))) << s;
  // No cliques beyond n.
  for (std::size_t s = 13; s < result.per_size.size(); ++s)
    EXPECT_EQ(result.per_size[s], BigCount{}) << s;
}

TEST(PivoterAllK, LargestNonzeroSizeIsMaxClique) {
  // One planted 9-clique in noise: k_max must be exactly 9.
  EdgeList edges = GnM(60, 40, 7);
  PlantCliques(&edges, 60, 1, 9, 9, 8);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  CountOptions options;
  options.mode = CountMode::kAllK;
  const CountResult result = CountCliques(dag, options);
  std::size_t kmax = 0;
  for (std::size_t s = 1; s < result.per_size.size(); ++s)
    if (result.per_size[s] != BigCount{}) kmax = s;
  EXPECT_EQ(kmax, 9u);
}

TEST(PivoterAllK, TotalIsPerSizeAtK) {
  const Graph g = BuildGraph(ErdosRenyi(30, 0.5, 17));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  CountOptions options;
  options.mode = CountMode::kAllK;
  options.k = 4;
  const CountResult result = CountCliques(dag, options);
  EXPECT_EQ(result.total, result.per_size[4]);
}

// ---------------------------------------------------------------- per-vertex

TEST(PivoterPerVertex, SumsToKTimesTotal) {
  const Graph g = BuildGraph(ErdosRenyi(35, 0.4, 21));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  CountOptions options;
  options.k = 4;
  options.per_vertex = true;
  const CountResult result = CountCliques(dag, options);
  BigCount sum{};
  for (const BigCount& c : result.per_vertex) sum += c;
  EXPECT_EQ(sum, result.total * BigCount(4));
}

TEST(PivoterPerVertex, MatchesBruteForce) {
  const Graph g = BuildGraph(ErdosRenyi(25, 0.5, 29));
  const auto expected = BruteForcePerVertex(g, 4);
  for (const SubgraphKind structure : kAllSubgraphKinds) {
    const Graph dag = MakeDag(g, OrderingKind::kCore);
    CountOptions options;
    options.k = 4;
    options.per_vertex = true;
    const CountResult result = CountCliquesOn(dag, options, structure);
    ASSERT_EQ(result.per_vertex.size(), expected.size());
    for (NodeId v = 0; v < g.NumNodes(); ++v)
      EXPECT_EQ(result.per_vertex[v].value(),
                static_cast<uint128>(expected[v]))
          << "structure=" << SubgraphKindName(structure) << " v=" << v;
  }
}

TEST(PivoterPerVertex, CompleteGraphUniform) {
  const Graph g = BuildGraph(CompleteGraph(8));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  CountOptions options;
  options.k = 3;
  options.per_vertex = true;
  const CountResult result = CountCliques(dag, options);
  // Each vertex of K_8 is in C(7, 2) = 21 triangles.
  for (NodeId v = 0; v < 8; ++v)
    EXPECT_EQ(result.per_vertex[v].value(), static_cast<uint128>(21));
}

// ---------------------------------------------------------------- big counts

TEST(Pivoter, PlantedCliqueCountsExplode) {
  // A 40-clique alone: C(40, 20) ~ 1.4e11 20-cliques, exact.
  const Graph g = BuildGraph(CompleteGraph(40));
  EXPECT_EQ(Count(g, 20, SubgraphKind::kBitmap).value(),
            BinomialChoose(40, 20));
}

TEST(Pivoter, SaturationOnAstronomicalCounts) {
  // K_140 has C(140, 70) ~ 9e40 70-cliques > 2^128-1: must saturate, not
  // wrap.
  const Graph g = BuildGraph(CompleteGraph(140));
  const BigCount count = Count(g, 70, SubgraphKind::kBitmap);
  EXPECT_TRUE(count.saturated());
}

TEST(RankVerticesByCount, DropsZerosBreaksTiesByIdAndStopsAtNonzero) {
  const std::vector<BigCount> per_vertex = {
      BigCount{3}, BigCount{0}, BigCount{7}, BigCount{3},
      BigCount{0}, BigCount{7}, BigCount{1}};
  const std::vector<VertexCount> top2 = RankVerticesByCount(per_vertex, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].vertex, 2u);
  EXPECT_EQ(top2[1].vertex, 5u);
  EXPECT_EQ(top2[1].count, BigCount{7});

  // Asking for more than the five nonzero counts returns just those five.
  const std::vector<VertexCount> all = RankVerticesByCount(per_vertex, 100);
  std::vector<NodeId> order;
  for (const VertexCount& vc : all) order.push_back(vc.vertex);
  EXPECT_EQ(order, (std::vector<NodeId>{2, 5, 0, 3, 6}));
  EXPECT_TRUE(RankVerticesByCount(std::vector<BigCount>(4), 3).empty());
}

// ---------------------------------------------------------------- option validation

TEST(CountOptionsValidation, RejectsUndirectedInput) {
  const Graph g = BuildGraph(CompleteGraph(4));
  CountOptions options;
  EXPECT_THROW(CountCliques(g, options), std::invalid_argument);
}

TEST(CountOptionsValidation, RejectsPerVertexAllK) {
  const Graph g = BuildGraph(CompleteGraph(4));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  CountOptions options;
  options.per_vertex = true;
  options.mode = CountMode::kAllK;
  EXPECT_THROW(CountCliques(dag, options), std::invalid_argument);
}

TEST(CountOptionsValidation, RejectsZeroK) {
  const Graph g = BuildGraph(CompleteGraph(4));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  CountOptions options;
  options.k = 0;
  EXPECT_THROW(CountCliques(dag, options), std::invalid_argument);
}

// ---------------------------------------------------------------- instrumentation

TEST(PivoterStats, OpStatsPopulated) {
  const Graph g = BuildGraph(ErdosRenyi(60, 0.3, 33));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  // At k = 4 the closed-form tail settles every root without a branch
  // descent, so k = 5 is the smallest k whose run forms child sets.
  CountOptions options;
  options.k = 5;
  options.collect_op_stats = true;
  const CountResult result = CountCliques(dag, options);
  EXPECT_GT(result.ops.calls, 0u);
  EXPECT_GT(result.ops.edge_ops, 0u);
  EXPECT_GT(result.ops.induces, 0u);
  // Counts must be identical with and without instrumentation.
  CountOptions plain;
  plain.k = 5;
  EXPECT_EQ(result.total, CountCliques(dag, plain).total);
}

TEST(PivoterStats, WorkTraceCoversAllRootsAndMatchesTotals) {
  const Graph g = BuildGraph(ErdosRenyi(50, 0.3, 37));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  CountOptions options;
  options.k = 4;
  WorkTrace trace;
  const CountResult result =
      CountCliquesOn(dag, options, SubgraphKind::kBitmap, &trace);
  ASSERT_EQ(trace.roots.size(), dag.NumNodes());
  EXPECT_EQ(trace.TotalEdgeOps(), result.ops.edge_ops);
  // Every root appears exactly once, with its out-degree as build work.
  std::vector<bool> seen(dag.NumNodes(), false);
  for (const RootWork& w : trace.roots) {
    EXPECT_FALSE(seen[w.root]);
    seen[w.root] = true;
    EXPECT_EQ(w.build_ops, dag.Degree(w.root));
  }
}

TEST(PivoterStats, DegreeOrderingDoesMoreWorkThanCore) {
  // The Table II relationship: counting under a degree ordering never does
  // less algorithmic work than under the core ordering (on a graph where
  // the orderings actually differ).
  EdgeList edges = Rmat(9, 8.0, 41);
  PlantCliques(&edges, 256, 5, 6, 12, 42);
  const Graph g = BuildGraph(std::move(edges));
  CountOptions options;
  options.k = 6;
  options.collect_op_stats = true;
  const CountResult core =
      CountCliques(MakeDag(g, OrderingKind::kCore), options);
  const CountResult degree =
      CountCliques(MakeDag(g, OrderingKind::kDegree), options);
  EXPECT_EQ(core.total, degree.total);
  EXPECT_GE(degree.ops.edge_ops * 105 / 100, core.ops.edge_ops);
}

TEST(PivoterStats, WorkspaceDenseLargerThanRemap) {
  const Graph g = BuildGraph(Rmat(12, 6.0, 43));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  const CountOptions options;
  const auto dense_bytes =
      CountCliquesOn(dag, options, SubgraphKind::kDense).workspace_bytes;
  const auto remap_bytes =
      CountCliquesOn(dag, options, SubgraphKind::kRemap).workspace_bytes;
  EXPECT_GT(dense_bytes, 4 * remap_bytes);
}

// ---------------------------------------------------------------- pipeline

TEST(Pipeline, MatchesDirectCount) {
  const Graph g = BuildGraph(ErdosRenyi(80, 0.2, 51));
  PivotScaleOptions options;
  options.k = 4;
  options.heuristic.min_nodes = 10;
  const PivotScaleResult result = CountKCliques(g, options);
  EXPECT_EQ(result.total,
            Count(g, 4, SubgraphKind::kBitmap, OrderingKind::kCore));
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_FALSE(result.ordering_name.empty());
}

TEST(Pipeline, ForcedOrderingsAllAgree) {
  EdgeList edges = GnM(120, 600, 53);
  PlantCliques(&edges, 120, 3, 5, 9, 54);
  const Graph g = BuildGraph(std::move(edges));
  BigCount reference{};
  bool first = true;
  for (auto kind :
       {OrderingKind::kDegree, OrderingKind::kCore, OrderingKind::kApproxCore,
        OrderingKind::kKCore, OrderingKind::kCentrality}) {
    PivotScaleOptions options;
    options.k = 5;
    options.forced_ordering = OrderingSpec{kind, -0.5, 3};
    const PivotScaleResult result = CountKCliques(g, options);
    if (first) {
      reference = result.total;
      first = false;
    } else {
      EXPECT_EQ(result.total, reference) << OrderingSpecName({kind});
    }
  }
}

TEST(Pipeline, AllKMode) {
  const Graph g = BuildGraph(CompleteGraph(9));
  PivotScaleOptions options;
  options.k = 4;
  options.all_k = true;
  const PivotScaleResult result = CountKCliques(g, options);
  EXPECT_EQ(result.total.value(), BinomialChoose(9, 4));
  EXPECT_EQ(result.count.per_size[2].value(), BinomialChoose(9, 2));
}

TEST(Pipeline, RejectsDagInput) {
  const Graph g = BuildGraph(CompleteGraph(4));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  EXPECT_THROW(CountKCliques(dag, {}), std::invalid_argument);
}

TEST(Pipeline, SimpleWrapper) {
  const Graph g = BuildGraph(CompleteGraph(7));
  EXPECT_EQ(CountKCliquesSimple(g, 3).value(), BinomialChoose(7, 3));
}

}  // namespace
}  // namespace pivotscale

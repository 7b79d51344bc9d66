// Cross-validation of the counting driver, plus regression tests for the
// pipeline mode clobber and the per-thread busy-time sizing fix.
//
// The driver runs one task per root. On random graphs every kernel —
// the paper's dense, sparse and remap structures and the bitmap kernel,
// each through CountCliquesOn — must match brute force for every k, with
// and without per-vertex attribution. The all-size modes are checked
// against brute force for every size, and their leaf histogram for
// independence from the team size. CountCliques must equal
// CountCliquesOn(kBitmap) bit for bit, op counters included.
//
// The kernel section pins the production path: the bitmap kernel takes
// subgraphs of every size — sets of one to four words and wide ones — and
// it, the remap reference, the driver and brute force agree bit for bit
// on every mode at the word boundaries and on planted cliques far past
// four words. It also pins one task per root at default options. The
// narrowing section checks the bitmap kernel's re-indexing into narrower
// matrices: on nested hubs that narrow through every width, and against
// the recursion tree (op counts, leaf histogram, per-vertex counts)
// recorded before the kernel narrowed.
#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "pivot/bitmap_counter.h"
#include "pivot/count.h"
#include "pivot/count_on.h"
#include "pivot/pivoter.h"
#include "pivot/pivotscale.h"
#include "pivot/subgraph_remap.h"
#include "test_helpers.h"
#include "util/binomial.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace pivotscale {
namespace {

using testing_helpers::BruteForceCount;
using testing_helpers::kAllSubgraphKinds;
using testing_helpers::BruteForcePerVertex;
using testing_helpers::KernelTotals;
using testing_helpers::MakeDag;
using testing_helpers::RunKernel;

// ------------------------------------------------- driver cross-validation

template <typename Policy>
using RemapKernel = PivotCounter<RemapSubgraph, OpCountStats, Policy>;
template <typename Policy>
using BitmapKernel = BitmapCounter<OpCountStats, Policy>;

struct CrossParam {
  NodeId n;
  double p;
  std::uint64_t seed;
};

class DriverCrosscheck : public ::testing::TestWithParam<CrossParam> {};

TEST_P(DriverCrosscheck, AllStructuresMatchBruteForce) {
  const auto [n, p, seed] = GetParam();
  const Graph g = BuildGraph(ErdosRenyi(n, p, seed));
  const Graph dag = MakeDag(g, OrderingKind::kCore);

  for (std::uint32_t k = 1; k <= 6; ++k) {
    const auto truth = static_cast<uint128>(BruteForceCount(g, k));
    CountOptions options;
    options.k = k;
    for (const SubgraphKind kind : kAllSubgraphKinds) {
      EXPECT_EQ(CountCliquesOn(dag, options, kind).total.value(), truth)
          << "k=" << k << " structure=" << SubgraphKindName(kind);
    }
  }
}

TEST_P(DriverCrosscheck, PerVertexCountsMatchBruteForce) {
  const auto [n, p, seed] = GetParam();
  const Graph g = BuildGraph(ErdosRenyi(n, p, seed + 1000));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);

  for (std::uint32_t k = 1; k <= 6; ++k) {
    const auto truth = BruteForcePerVertex(g, k);
    CountOptions options;
    options.k = k;
    options.per_vertex = true;
    for (const SubgraphKind kind : kAllSubgraphKinds) {
      const CountResult result = CountCliquesOn(dag, options, kind);
      ASSERT_EQ(result.per_vertex.size(), g.NumNodes());
      for (NodeId v = 0; v < g.NumNodes(); ++v)
        EXPECT_EQ(result.per_vertex[v].value(), static_cast<uint128>(truth[v]))
            << "k=" << k << " structure=" << SubgraphKindName(kind)
            << " v=" << v;
    }
  }
}

TEST_P(DriverCrosscheck, AllKPerSizeAgrees) {
  // Both all-size modes derive per_size from the merged leaf histogram:
  // exact for every size in kAllK, for sizes up to k in kAllUpToK (larger
  // sizes read 0). Planted cliques reach sizes past k.
  const auto [n, p, seed] = GetParam();
  EdgeList edges = ErdosRenyi(n, p, seed + 2000);
  PlantCliques(&edges, n, 2, 5, 8, seed + 2001);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  const std::size_t sizes = dag.MaxDegree() + 3;
  std::vector<BigCount> truth(sizes);
  for (std::uint32_t s = 1; s < sizes; ++s) {
    truth[s] = BruteForceCount(g, s);
    if (truth[s] == BigCount{}) break;
  }

  constexpr std::uint32_t kUpTo = 4;
  for (const CountMode mode : {CountMode::kAllK, CountMode::kAllUpToK}) {
    const bool all = mode == CountMode::kAllK;
    std::vector<BigCount> expected = truth;
    if (!all)
      std::fill(expected.begin() + kUpTo + 1, expected.end(), BigCount{});
    CountOptions options;
    options.k = kUpTo;
    options.mode = mode;
    options.num_threads = 1;
    const CountResult one = CountCliques(dag, options);
    options.num_threads = 4;
    const CountResult four = CountCliques(dag, options);
    EXPECT_EQ(one.per_size, expected) << "all=" << all;
    EXPECT_EQ(one.total, expected[kUpTo]);
    // Leaf for leaf: each root's leaves do not depend on its worker.
    EXPECT_TRUE(four.profile == one.profile) << "all=" << all;
    EXPECT_EQ(four.per_size, one.per_size);
    for (const SubgraphKind kind : kAllSubgraphKinds) {
      EXPECT_EQ(CountCliquesOn(dag, options, kind).per_size, expected)
          << "all=" << all << " structure=" << SubgraphKindName(kind);
    }
    EXPECT_EQ(RunKernel<RemapKernel>(dag, mode, kUpTo).per_size, expected)
        << "all=" << all;
    EXPECT_EQ(RunKernel<BitmapKernel>(dag, mode, kUpTo).per_size, expected)
        << "all=" << all;
  }
}

TEST_P(DriverCrosscheck, ProductionEntryMatchesBitmapKindBitForBit) {
  // CountCliques and CountCliquesOn(kBitmap) run one driver template on
  // one kernel: every output, op counters included, is identical.
  const auto [n, p, seed] = GetParam();
  EdgeList edges = ErdosRenyi(n, p, seed + 3000);
  PlantCliques(&edges, n, 2, 5, 8, seed + 3001);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);

  for (const CountMode mode : {CountMode::kSingleK, CountMode::kAllK,
                               CountMode::kAllUpToK}) {
    for (const bool per_vertex : {false, true}) {
      if (per_vertex && mode != CountMode::kSingleK) continue;
      for (std::uint32_t k = 1; k <= 6; ++k) {
        CountOptions options;
        options.k = k;
        options.mode = mode;
        options.per_vertex = per_vertex;
        options.collect_op_stats = true;
        const CountResult production = CountCliques(dag, options);
        const CountResult bitmap =
            CountCliquesOn(dag, options, SubgraphKind::kBitmap);
        const std::string where = "mode=" +
                                  std::to_string(static_cast<int>(mode)) +
                                  " per_vertex=" + std::to_string(per_vertex) +
                                  " k=" + std::to_string(k);
        EXPECT_EQ(production.total, bitmap.total) << where;
        EXPECT_EQ(production.per_size, bitmap.per_size) << where;
        EXPECT_EQ(production.per_vertex, bitmap.per_vertex) << where;
        EXPECT_EQ(production.ops.calls, bitmap.ops.calls) << where;
        EXPECT_EQ(production.ops.edge_ops, bitmap.ops.edge_ops) << where;
        EXPECT_EQ(production.ops.induces, bitmap.ops.induces) << where;
        EXPECT_EQ(production.ops.memberships, bitmap.ops.memberships)
            << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGnp, DriverCrosscheck,
    ::testing::Values(CrossParam{40, 0.10, 1}, CrossParam{40, 0.25, 2},
                      CrossParam{60, 0.15, 3}, CrossParam{80, 0.08, 4},
                      // Dense sets that are not cliques: the triangle
                      // tail's pair loop runs on most of its nodes.
                      CrossParam{30, 0.80, 5}),
    [](const ::testing::TestParamInfo<CrossParam>& param_info) {
      std::string name = "n";
      name += std::to_string(param_info.param.n);
      name += "_seed";
      name += std::to_string(param_info.param.seed);
      return name;
    });

// ------------------------------------------------- closed-form tail
//
// With early termination on, kSingleK and kAllUpToK nodes are settled in
// closed form (pivot/clique_leaves.h): the remap kernel settles r >= k - 2
// from |P| and |E(P)|, the bitmap kernel r >= k - 3 from |P|, |E(P)| and
// c_3(P). Each case runs the production driver, and the remap and bitmap
// kernels on their own; early_termination = false is the full recursion
// they must match.

// The param's G(n, p) graph, alone or with planted cliques of 5 to 8
// vertices, which give the recursion deep r >= k - 2 subtrees.
Graph TailGraph(const CrossParam& param, bool planted) {
  EdgeList edges = ErdosRenyi(param.n, param.p, param.seed + 5000);
  if (planted) PlantCliques(&edges, param.n, 3, 5, 8, param.seed + 5001);
  return BuildGraph(std::move(edges));
}

TEST_P(DriverCrosscheck, ClosedFormTailMatchesBruteForceAndFullRecursion) {
  for (const bool planted : {false, true}) {
    const Graph g = TailGraph(GetParam(), planted);
    const Graph dag = MakeDag(g, OrderingKind::kCore);
    std::vector<uint128> truth(7);
    for (std::uint32_t s = 1; s <= 6; ++s) truth[s] = BruteForceCount(g, s);

    for (std::uint32_t k = 1; k <= 6; ++k) {
      for (const CountMode mode : {CountMode::kSingleK, CountMode::kAllUpToK}) {
        // The sizes a run must get right: k alone, or every size up to k.
        const auto expect_exact = [&](const std::vector<BigCount>& per_size,
                                      BigCount total, const char* what) {
          EXPECT_EQ(total.value(), truth[k])
              << what << " planted=" << planted << " k=" << k;
          if (mode != CountMode::kAllUpToK) return;
          for (std::uint32_t s = 1; s <= k; ++s) {
            const BigCount got =
                s < per_size.size() ? per_size[s] : BigCount{};
            EXPECT_EQ(got.value(), truth[s]) << what << " planted=" << planted
                                             << " k=" << k << " s=" << s;
          }
        };
        for (const bool early : {true, false}) {
          CountOptions options;
          options.k = k;
          options.mode = mode;
          options.early_termination = early;
          const CountResult driver = CountCliques(dag, options);
          expect_exact(driver.per_size, driver.total, "driver");
        }
        // The tail run visits a pruned copy of the full run's tree, with
        // the same P at every node they share, so it never makes more
        // calls. It settles every root that has out-neighbors in one call
        // at k = 3 (both kernels) and at k = 4 (the bitmap kernel's
        // triangle level), so there it must cut calls outright.
        const auto expect_fewer_calls = [&](const KernelTotals& tail,
                                            const KernelTotals& full,
                                            std::uint32_t tail_levels,
                                            const char* what) {
          expect_exact(tail.per_size, tail.total, what);
          expect_exact(full.per_size, full.total, what);
          EXPECT_LE(tail.ops.calls, full.ops.calls) << what << " k=" << k;
          if (k >= 3 && k <= tail_levels + 1) {
            EXPECT_LT(tail.ops.calls, full.ops.calls) << what << " k=" << k;
          }
        };
        // The remap tail costs a node at most its pivot scan, so it can
        // only cut edge ops.
        const KernelTotals remap = RunKernel<RemapKernel>(dag, mode, k);
        const KernelTotals remap_full =
            RunKernel<RemapKernel>(dag, mode, k, false, false);
        expect_fewer_calls(remap, remap_full, 2, "remap");
        EXPECT_LE(remap.ops.edge_ops, remap_full.ops.edge_ops) << "k=" << k;
        // The bitmap tail can cost more edge ops than it saves: at a shared
        // node with candidate set P the full run pays its pivot scan, |P|
        // popcounts, while a triangle-tail node pays |P| plus at most one
        // per edge of G[P], so at most |P| + |P|(|P| - 1) / 2 =
        // |P|(|P| + 1) / 2. Every other tail node pays what the full node
        // pays (the same scan) or nothing (settled before a scan), and the
        // nodes only the full run visits add to its side. Since |P| <= Δ⁺,
        // the DAG's max out-degree, 2 tail.edge_ops <= (Δ⁺ + 1) full.edge_ops.
        const KernelTotals bitmap = RunKernel<BitmapKernel>(dag, mode, k);
        const KernelTotals bitmap_full =
            RunKernel<BitmapKernel>(dag, mode, k, false, false);
        expect_fewer_calls(bitmap, bitmap_full, 3, "bitmap");
        const std::uint64_t max_out = dag.MaxDegree();
        EXPECT_LE(2 * bitmap.ops.edge_ops,
                  (max_out + 1) * bitmap_full.ops.edge_ops)
            << "k=" << k;
      }
    }
  }
}

TEST_P(DriverCrosscheck, ClosedFormTailLeavesPerVertexUnchanged) {
  // Per-vertex runs keep the full recursion: the tail must not change a
  // single vertex's count.
  const Graph g = TailGraph(GetParam(), /*planted=*/true);
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  for (std::uint32_t k = 1; k <= 6; ++k) {
    const auto truth = BruteForcePerVertex(g, k);
    for (const bool early : {true, false}) {
      CountOptions options;
      options.k = k;
      options.per_vertex = true;
      options.early_termination = early;
      const CountResult driver = CountCliques(dag, options);
      ASSERT_EQ(driver.per_vertex.size(), truth.size());
      for (NodeId v = 0; v < g.NumNodes(); ++v)
        EXPECT_EQ(driver.per_vertex[v].value(), static_cast<uint128>(truth[v]))
            << "k=" << k << " early=" << early << " v=" << v;
      const KernelTotals remap =
          RunKernel<RemapKernel>(dag, CountMode::kSingleK, k, true, early);
      for (NodeId v = 0; v < g.NumNodes(); ++v)
        EXPECT_EQ(remap.per_vertex[v].value(), static_cast<uint128>(truth[v]))
            << "remap k=" << k << " early=" << early << " v=" << v;
    }
  }
}

TEST(ClosedFormTail, SettlesEveryCompleteGraphRootInOneCall) {
  // At k = 3 every root of K_n starts at r = 1 = k - 2, so the tail
  // settles it in one call from its d out-neighbors and their C(d, 2)
  // edges, which are the root's triangles. Without it the
  // remap kernel walks each root's d + 1 call pivot chain; §V-A early
  // termination alone never fires there (r stays 1).
  for (const NodeId n : {2u, 5u, 40u}) {
    const Graph dag =
        MakeDag(BuildGraph(CompleteGraph(n)), OrderingKind::kDegree);
    for (const CountMode mode : {CountMode::kSingleK, CountMode::kAllUpToK}) {
      const KernelTotals tail = RunKernel<RemapKernel>(dag, mode, 3);
      const KernelTotals full =
          RunKernel<RemapKernel>(dag, mode, 3, false, false);
      EXPECT_EQ(tail.total.value(), BinomialChoose(n, 3)) << "n=" << n;
      EXPECT_EQ(full.total, tail.total) << "n=" << n;
      EXPECT_EQ(tail.ops.calls, n) << "n=" << n;
      EXPECT_EQ(full.ops.calls, static_cast<std::uint64_t>(n) * (n + 1) / 2)
          << "n=" << n;
    }
  }
  // At k = 4 the bitmap kernel's triangle tail settles every root of K_n
  // (r = 1 = k - 3). Its pass walks the root's clique in descending id, so
  // the walked members always form a clique and no pair popcount runs: a
  // root with d out-neighbors pays d popcounts, what its clique leaf paid
  // before the triangle tail. kSingleK skips the roots with 0, 1 or 2
  // out-neighbors before their build (CliqueLeaves::SkipsRoot), so they
  // pay no call and no scan; kAllUpToK calls every root and scans the
  // roots with 1 or 2 out-neighbors.
  for (const NodeId n : {5u, 40u, 300u}) {
    const Graph dag =
        MakeDag(BuildGraph(CompleteGraph(n)), OrderingKind::kDegree);
    const std::uint64_t pairs = static_cast<std::uint64_t>(n) * (n - 1) / 2;
    for (const CountMode mode : {CountMode::kSingleK, CountMode::kAllUpToK}) {
      const KernelTotals tail = RunKernel<BitmapKernel>(dag, mode, 4);
      EXPECT_EQ(tail.total.value(), BinomialChoose(n, 4)) << "n=" << n;
      if (mode == CountMode::kAllUpToK) {
        for (std::uint32_t s = 1; s <= 4; ++s)
          EXPECT_EQ(tail.per_size[s].value(), BinomialChoose(n, s))
              << "n=" << n << " s=" << s;
      }
      EXPECT_EQ(tail.ops.calls, mode == CountMode::kSingleK ? n - 3 : n)
          << "n=" << n;
      EXPECT_EQ(tail.ops.edge_ops,
                mode == CountMode::kSingleK ? pairs - 3 : pairs)
          << "n=" << n;
    }
  }
}

TEST(RootSkip, ShortRootsAddNothingInSingleKAndTheirCliquesInAllUpToK) {
  // A sparse graph under the degree ordering: most roots have
  // out-degree + 1 < k, so kSingleK skips them before their build. The
  // planted cliques give the long roots k-cliques to count.
  constexpr std::uint32_t k = 5;
  EdgeList edges = GnM(400, 700, 31);
  PlantCliques(&edges, 400, 6, 5, 7, 31);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  const auto bound = static_cast<std::uint32_t>(dag.MaxDegree()) + 1;
  const BinomialTable binom(bound + 1);
  const auto is_short = [&](NodeId v) { return dag.Degree(v) + 1 < k; };

  BitmapKernel<SingleKPolicy> single(dag, k, bound, &binom);
  NodeId short_roots = 0;
  for (NodeId v = 0; v < dag.NumNodes(); ++v) {
    const BigCount total = single.total();
    const OpCounters ops = single.stats().Snapshot();
    single.ProcessRoot(v);
    if (!is_short(v)) continue;
    ++short_roots;
    const OpCounters after = single.stats().Snapshot();
    EXPECT_EQ(single.total(), total) << "root=" << v;
    EXPECT_EQ(after.calls, ops.calls) << "root=" << v;
    EXPECT_EQ(after.edge_ops, ops.edge_ops) << "root=" << v;
    EXPECT_EQ(after.induces, ops.induces) << "root=" << v;
  }
  EXPECT_GT(short_roots, dag.NumNodes() / 2);
  EXPECT_EQ(single.total().value(),
            static_cast<uint128>(BruteForceCount(g, k)));

  // kAllUpToK never skips: the short roots alone still count the cliques
  // they root, c_{s-1}(N+(v)) s-cliques for each short root v, here
  // enumerated over the subsets of its at most k - 2 out-neighbors.
  BitmapKernel<AllUpToKPolicy> upto(dag, k, bound, &binom);
  std::vector<std::uint64_t> expected(k + 1, 0);
  for (NodeId v = 0; v < dag.NumNodes(); ++v) {
    if (!is_short(v)) continue;
    upto.ProcessRoot(v);
    const auto nbrs = dag.Neighbors(v);
    for (std::uint32_t subset = 0; subset < (1u << nbrs.size()); ++subset) {
      bool clique = true;
      for (std::uint32_t a = 0; a < nbrs.size(); ++a)
        for (std::uint32_t b = a + 1; b < nbrs.size(); ++b)
          if ((subset >> a & 1) && (subset >> b & 1) &&
              !g.HasEdge(nbrs[a], nbrs[b]))
            clique = false;
      if (clique) ++expected[1 + std::popcount(subset)];
    }
  }
  const std::vector<BigCount> per_size = upto.profile().PerSize(k);
  EXPECT_GT(expected[3], 0u);
  for (std::uint32_t s = 1; s <= k; ++s)
    EXPECT_EQ(per_size[s].value(), static_cast<uint128>(expected[s]))
        << "s=" << s;
}

TEST(DriverCrosscheck, PlantedCliquesDeepK) {
  // Clique-rich input exercises the deep pivoting branches.
  EdgeList edges = GnM(70, 300, 9);
  PlantCliques(&edges, 70, 3, 7, 9, 10);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  for (std::uint32_t k = 2; k <= 8; ++k) {
    CountOptions options;
    options.k = k;
    EXPECT_EQ(CountCliques(dag, options).total.value(),
              static_cast<uint128>(BruteForceCount(g, k)))
        << "k=" << k;
  }
}

// ------------------------------------------------------ one kernel

// A hub (vertex 0) adjacent to `d` spokes. The spokes carry a sparse
// random graph and two planted cliques, so the hub's subgraph recurses
// deeply. Ranking by vertex id puts the hub first, so its DAG out-degree
// is exactly d.
Graph HubGraph(NodeId d, std::uint64_t seed) {
  EdgeList spokes = d >= 2 ? ErdosRenyi(d, 0.05, seed) : EdgeList{};
  if (d >= 12) PlantCliques(&spokes, d, 2, 6, 10, seed + 1);
  EdgeList edges;
  for (NodeId i = 1; i <= d; ++i) edges.emplace_back(0, i);
  for (const auto& [u, v] : spokes) edges.emplace_back(u + 1, v + 1);
  return BuildUndirected(std::move(edges), d + 1);
}

Graph IdentityDag(const Graph& g) {
  std::vector<NodeId> ranks(g.NumNodes());
  std::iota(ranks.begin(), ranks.end(), NodeId{0});
  return Directionalize(g, ranks);
}

CountResult Production(const Graph& dag, CountMode mode, std::uint32_t k,
                       bool per_vertex = false, bool early_termination = true,
                       int threads = 0) {
  CountOptions options;
  options.k = k;
  options.mode = mode;
  options.per_vertex = per_vertex;
  options.early_termination = early_termination;
  options.collect_op_stats = true;
  options.num_threads = threads;
  return CountCliques(dag, options);
}

class KernelBoundary : public ::testing::TestWithParam<NodeId> {};

TEST_P(KernelBoundary, BitmapRemapDriverAndBruteForceAgree) {
  const NodeId d = GetParam();
  const Graph g = HubGraph(d, 500 + d);
  const Graph dag = IdentityDag(g);
  ASSERT_EQ(dag.Degree(0), d);

  for (std::uint32_t k = 1; k <= 5; ++k) {
    const auto truth = static_cast<uint128>(BruteForceCount(g, k));
    for (const bool early : {true, false}) {
      const KernelTotals remap =
          RunKernel<RemapKernel>(dag, CountMode::kSingleK, k, false, early);
      const KernelTotals bitmap =
          RunKernel<BitmapKernel>(dag, CountMode::kSingleK, k, false, early);
      const CountResult driver =
          Production(dag, CountMode::kSingleK, k, false, early);
      EXPECT_EQ(remap.total.value(), truth) << "k=" << k;
      EXPECT_EQ(bitmap.total.value(), truth) << "k=" << k;
      EXPECT_EQ(driver.total.value(), truth) << "k=" << k << " early=" << early;
    }
  }

  // Per-size modes: per_size bit for bit.
  for (const CountMode mode : {CountMode::kAllK, CountMode::kAllUpToK}) {
    const KernelTotals remap = RunKernel<RemapKernel>(dag, mode, 4);
    const KernelTotals bitmap = RunKernel<BitmapKernel>(dag, mode, 4);
    EXPECT_EQ(bitmap.per_size, remap.per_size);
    for (std::uint32_t s = 1; s <= 4; ++s) {
      const BigCount got =
          s < remap.per_size.size() ? remap.per_size[s] : BigCount{};
      EXPECT_EQ(got.value(), static_cast<uint128>(BruteForceCount(g, s)))
          << "s=" << s;
    }
    EXPECT_EQ(Production(dag, mode, 4).per_size, remap.per_size);
  }

  // Per-vertex attribution.
  for (const std::uint32_t k : {1u, 2u, 4u}) {
    const auto truth = BruteForcePerVertex(g, k);
    const KernelTotals remap =
        RunKernel<RemapKernel>(dag, CountMode::kSingleK, k, true);
    const KernelTotals bitmap =
        RunKernel<BitmapKernel>(dag, CountMode::kSingleK, k, true);
    EXPECT_EQ(bitmap.per_vertex, remap.per_vertex) << "k=" << k;
    const CountResult driver = Production(dag, CountMode::kSingleK, k, true);
    ASSERT_EQ(driver.per_vertex.size(), truth.size());
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(driver.per_vertex[v].value(), static_cast<uint128>(truth[v]))
          << "k=" << k << " v=" << v;
      EXPECT_EQ(remap.per_vertex[v], driver.per_vertex[v]) << "v=" << v;
    }
  }
}

TEST_P(KernelBoundary, OpCountsRepeatAcrossTeamSizes) {
  const NodeId d = GetParam();
  const Graph dag = IdentityDag(HubGraph(d, 700 + d));
  const CountResult one =
      Production(dag, CountMode::kSingleK, 5, false, true, 1);
  const CountResult four =
      Production(dag, CountMode::kSingleK, 5, false, true, 4);
  EXPECT_EQ(one.total, four.total);
  EXPECT_EQ(one.ops.calls, four.ops.calls);
  EXPECT_EQ(one.ops.edge_ops, four.ops.edge_ops);
  EXPECT_EQ(one.ops.induces, four.ops.induces);
  // Every root runs the bitmap kernel: the driver's op counts are exactly
  // the bitmap kernel's.
  const KernelTotals bitmap =
      RunKernel<BitmapKernel>(dag, CountMode::kSingleK, 5);
  const CountResult driver = Production(dag, CountMode::kSingleK, 5);
  EXPECT_EQ(driver.ops.calls, bitmap.ops.calls);
  EXPECT_EQ(driver.ops.edge_ops, bitmap.ops.edge_ops);
  EXPECT_EQ(driver.ops.induces, bitmap.ops.induces);
  EXPECT_EQ(driver.ops.memberships, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RootOutDegrees, KernelBoundary,
    ::testing::Values(0, 1, 63, 64, 65, 128, 129, 192, 193, 255, 256,
                      257, 320, 513),
    [](const ::testing::TestParamInfo<NodeId>& param_info) {
      std::string name = "d";
      name += std::to_string(param_info.param);
      return name;
    });

TEST(KernelSelection, WideRootsRunTheBitmapKernel) {
  // Roots past four words (W = 5 and 9) run the bitmap kernel too: the
  // driver reports exactly its op counts, and no remap membership test
  // ran.
  for (const NodeId d : {257u, 513u}) {
    const Graph dag = IdentityDag(HubGraph(d, 900 + d));
    const KernelTotals bitmap =
        RunKernel<BitmapKernel>(dag, CountMode::kSingleK, 4);
    const CountResult driver = Production(dag, CountMode::kSingleK, 4);
    EXPECT_EQ(driver.total, bitmap.total) << "d=" << d;
    EXPECT_EQ(driver.ops.calls, bitmap.ops.calls) << "d=" << d;
    EXPECT_EQ(driver.ops.edge_ops, bitmap.ops.edge_ops) << "d=" << d;
    EXPECT_EQ(driver.ops.induces, bitmap.ops.induces) << "d=" << d;
    EXPECT_EQ(driver.ops.memberships, 0u) << "d=" << d;
  }
}

TEST(KernelSelection, CompleteGraphsTakeTheCliqueLeaf) {
  // Every candidate set of K_n is a clique, so the bitmap kernel settles
  // each root in one call, at every width; the remap reference walks its
  // pivot chains, O(n^4) in all, so it runs only up to n = 200.
  for (const NodeId n : {1u, 2u, 64u, 65u, 200u, 300u, 449u}) {
    const Graph g = BuildUndirected(CompleteGraph(n), n);
    const Graph dag = MakeDag(g, OrderingKind::kDegree);
    const CountResult driver = Production(dag, CountMode::kAllK, 1);
    EXPECT_EQ(driver.ops.calls, n);
    if (n <= 200) {
      const KernelTotals remap =
          RunKernel<RemapKernel>(dag, CountMode::kAllK, 1);
      EXPECT_EQ(driver.per_size, remap.per_size) << "n=" << n;
      // A root of out-degree d walks a chain of d + 1 calls.
      EXPECT_EQ(remap.ops.calls, static_cast<std::uint64_t>(n) * (n + 1) / 2)
          << "n=" << n;
    }
    // Every size, saturated where C(n, s) passes 2^128 - 1, as Pascal's
    // rule saturates.
    const BinomialTable binom(n);
    for (std::uint32_t s = 1; s <= n; ++s)
      EXPECT_EQ(driver.per_size[s].value(), binom.Choose(n, s))
          << "n=" << n << " s=" << s;

    const CountResult per_vertex =
        Production(dag, CountMode::kSingleK, 3, true);
    for (NodeId v = 0; v < n; ++v)
      EXPECT_EQ(per_vertex.per_vertex[v].value(),
                BinomialChoose(n - 1, 2))
          << "n=" << n << " v=" << v;
  }
}

// A 300-clique (vertices 0..299) plus 20 pairwise non-adjacent vertices,
// each joined to a seeded half of the clique. Every clique lies in the
// 300-clique or in one outside vertex x plus its 150 clique neighbors, so
// there are C(300, s) + sum_x C(150, s - 1) s-cliques. In core order the
// clique's first vertex has out-degree 299, five words.
constexpr NodeId kPlanted = 300;
constexpr NodeId kOutside = 20;
constexpr NodeId kHalf = kPlanted / 2;

Graph PlantedCliqueGraph(std::uint64_t seed,
                         std::vector<std::vector<NodeId>>* joined) {
  EdgeList edges = CompleteGraph(kPlanted);
  Rng rng(seed);
  joined->assign(kOutside, {});
  for (NodeId x = 0; x < kOutside; ++x) {
    std::vector<NodeId> members(kPlanted);
    std::iota(members.begin(), members.end(), NodeId{0});
    for (NodeId i = 0; i < kHalf; ++i)
      std::swap(members[i], members[i + rng.Below(kPlanted - i)]);
    members.resize(kHalf);
    for (const NodeId v : members) edges.emplace_back(kPlanted + x, v);
    (*joined)[x] = std::move(members);
  }
  return BuildUndirected(std::move(edges), kPlanted + kOutside);
}

TEST(KernelSelection, PlantedCliqueMatchesItsClosedForm) {
  std::vector<std::vector<NodeId>> joined;
  const Graph g = PlantedCliqueGraph(4242, &joined);
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  ASSERT_EQ(dag.MaxDegree(), kPlanted - 1);
  const BinomialTable binom(kPlanted);
  const auto cliques = [&](std::uint32_t s) {
    return BigCount(binom.Choose(kPlanted, s)) +
           BigCount(binom.Choose(kHalf, s - 1)) * BigCount(kOutside);
  };

  const CountResult all = Production(dag, CountMode::kAllK, 3);
  for (std::uint32_t s = 1; s <= kPlanted + 1; ++s)
    EXPECT_EQ(all.per_size[s], cliques(s)) << "s=" << s;

  for (std::uint32_t k = 3; k <= 8; ++k) {
    const CountResult single = Production(dag, CountMode::kSingleK, k);
    EXPECT_EQ(single.total, cliques(k)) << "k=" << k;
    const CountResult upto = Production(dag, CountMode::kAllUpToK, k);
    for (std::uint32_t s = 1; s <= k; ++s)
      EXPECT_EQ(upto.per_size[s], cliques(s)) << "k=" << k << " s=" << s;

    // A clique vertex is in C(299, k - 1) cliques of the 300-clique and
    // in C(149, k - 2) more per outside vertex joined to it; an outside
    // vertex is in C(150, k - 1).
    std::vector<std::uint64_t> joins(kPlanted, 0);
    for (const auto& members : joined)
      for (const NodeId v : members) ++joins[v];
    const CountResult per_vertex =
        Production(dag, CountMode::kSingleK, k, true);
    for (NodeId v = 0; v < kPlanted; ++v)
      EXPECT_EQ(per_vertex.per_vertex[v].value(),
                binom.Choose(kPlanted - 1, k - 1) +
                    joins[v] * binom.Choose(kHalf - 1, k - 2))
          << "k=" << k << " v=" << v;
    for (NodeId x = kPlanted; x < kPlanted + kOutside; ++x)
      EXPECT_EQ(per_vertex.per_vertex[x].value(), binom.Choose(kHalf, k - 1))
          << "k=" << k << " x=" << x;
  }
}

TEST(KernelSelection, EveryRootIsOneTaskAtDefaultOptions) {
  // The 44 clique vertices first in core order have out-degree 256 or
  // more. Each is still one task: the exec region runs exactly one task
  // per root, and the count stays exact.
  std::vector<std::vector<NodeId>> joined;
  const Graph g = PlantedCliqueGraph(4242, &joined);
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  ASSERT_GE(dag.MaxDegree(), 256u);
  const BinomialTable binom(kPlanted);
  TelemetryRegistry telemetry;
  CountOptions options;
  options.telemetry = &telemetry;
  const CountResult result = CountCliques(dag, options);
  EXPECT_EQ(result.total, BigCount(binom.Choose(kPlanted, options.k)) +
                              BigCount(binom.Choose(kHalf, options.k - 1)) *
                                  BigCount(kOutside));
  EXPECT_EQ(telemetry.Counter("count.roots"), dag.NumNodes());
  EXPECT_EQ(telemetry.Counter("exec.tasks"),
            telemetry.Counter("count.roots"));
}

TEST(KernelSelection, HubProfileStaysQuadraticInTheCliqueSize) {
  // A hub of out-degree 4000 whose spokes form 1000 disjoint K4s: every
  // clique lies in one hub + K4 block (a K5), so omega = 5 and there are
  // 1000 * C(5, s) s-cliques for s >= 2. The all-size modes' histograms
  // grow with omega, not with the out-degree: each holds (omega + 1) *
  // (omega + 2) / 2 cells, where a per-size array sized by the out-degree
  // would hold 4000.
  constexpr NodeId kSpokes = 4000;
  EdgeList edges;
  for (NodeId i = 1; i <= kSpokes; ++i) edges.emplace_back(0, i);
  for (NodeId b = 1; b <= kSpokes; b += 4)
    for (NodeId i = b; i < b + 4; ++i)
      for (NodeId j = i + 1; j < b + 4; ++j) edges.emplace_back(i, j);
  const Graph dag = IdentityDag(BuildUndirected(std::move(edges), kSpokes + 1));
  ASSERT_EQ(dag.MaxDegree(), kSpokes);

  const CountResult single =
      Production(dag, CountMode::kSingleK, 3, false, true, 1);
  for (const CountMode mode : {CountMode::kAllK, CountMode::kAllUpToK}) {
    const CountResult all = Production(dag, mode, 3, false, true, 1);
    const std::uint32_t last = mode == CountMode::kAllK ? 6 : 3;
    EXPECT_EQ(all.per_size[1].value(), static_cast<uint128>(kSpokes + 1));
    for (std::uint32_t s = 2; s <= last; ++s)
      EXPECT_EQ(all.per_size[s].value(), (kSpokes / 4) * BinomialChoose(5, s))
          << "s=" << s;
    // kAllUpToK settles every k = 3 root in its closed-form tail.
    EXPECT_EQ(all.profile.MaxCliqueSize(), last == 6 ? 5u : 3u);
    EXPECT_LE(all.profile.Bytes(), 1024u);
    // The one worker's histograms are all the all-size run adds to the
    // workspace of the same roots.
    EXPECT_LE(all.workspace_bytes, single.workspace_bytes + 2048);
  }
}

// ------------------------------------------------------------- narrowing

// A hub of out-degree 256 over HubGraph-style random spokes, three of which
// are nested sub-hubs: vertex 1 is adjacent to vertices 2..170, vertex 2 to
// 3..110 and vertex 3 to 4..50. Each sub-hub is the pivot of its parent's
// candidate set, so below the hub's root the bitmap kernel narrows its
// sets from 4 words to 3, then 2, then 1.
Graph NestedHubGraph(std::uint64_t seed) {
  constexpr NodeId kSpokes = 256;
  EdgeList spokes = ErdosRenyi(kSpokes, 0.05, seed);
  PlantCliques(&spokes, kSpokes, 2, 6, 10, seed + 1);
  const NodeId reach[] = {170, 110, 50};
  for (NodeId hub = 0; hub < 3; ++hub)
    for (NodeId v = hub + 1; v < reach[hub]; ++v) spokes.emplace_back(hub, v);
  EdgeList edges;
  for (NodeId i = 1; i <= kSpokes; ++i) edges.emplace_back(0, i);
  for (const auto& [u, v] : spokes) edges.emplace_back(u + 1, v + 1);
  return BuildUndirected(std::move(edges), kSpokes + 1);
}

TEST(Narrowing, NestedHubsNarrowThroughEveryWidthAndStayExact) {
  const Graph g = NestedHubGraph(700);
  const Graph dag = IdentityDag(g);
  ASSERT_EQ(dag.Degree(0), 256u);

  for (std::uint32_t k = 1; k <= 6; ++k) {
    const auto truth = static_cast<uint128>(BruteForceCount(g, k));
    for (const bool early : {true, false}) {
      const KernelTotals bitmap =
          RunKernel<BitmapKernel>(dag, CountMode::kSingleK, k, false, early);
      EXPECT_EQ(bitmap.total.value(), truth) << "k=" << k;
    }
  }
  for (const CountMode mode : {CountMode::kAllK, CountMode::kAllUpToK}) {
    const KernelTotals remap = RunKernel<RemapKernel>(dag, mode, 5);
    const KernelTotals bitmap = RunKernel<BitmapKernel>(dag, mode, 5);
    EXPECT_EQ(bitmap.per_size, remap.per_size);
  }
  const auto truth = BruteForcePerVertex(g, 4);
  const KernelTotals bitmap =
      RunKernel<BitmapKernel>(dag, CountMode::kSingleK, 4, true);
  for (NodeId v = 0; v < g.NumNodes(); ++v)
    EXPECT_EQ(bitmap.per_vertex[v].value(), static_cast<uint128>(truth[v]))
        << "v=" << v;

  // At k = 3 the hub's root settles in the closed-form tail without a
  // pivot scan; at k = 5 it narrows to every width below 4. The buffers
  // that adds, 64 N rows of N words and 64 N ids for N = 1, 2, 3, are all
  // the workspace grows by.
  const BinomialTable binom(258);
  std::size_t workspace[2] = {};
  for (const std::uint32_t k : {3u, 5u}) {
    BitmapKernel<SingleKPolicy> counter(dag, k, 257, &binom);
    counter.ProcessRoot(0);
    workspace[k == 5] = counter.WorkspaceBytes();
  }
  std::size_t buffers = 0;
  for (std::size_t n = 1; n <= 3; ++n)
    buffers += 64 * n * (n * sizeof(std::uint64_t) + sizeof(NodeId));
  EXPECT_EQ(workspace[1] - workspace[0], buffers);
}

// Narrowing re-indexes candidate sets without reordering them, so the
// recursion tree is the unnarrowed kernel's. These are the bitmap kernel's
// k = 5 kAllK leaf histogram and per-vertex counts on the hub DAGs,
// recorded before the kernel narrowed, and its kAllK op counts, recorded
// before the triangle tail (kAllK and per-vertex runs have no tail, so
// neither changes their tree).
struct PinnedTree {
  NodeId d;  // HubGraph(d, 700 + d); 0 for NestedHubGraph(700)
  std::uint64_t calls, edge_ops, induces;
  // Per-vertex k = 5 counts: the hub's, and sum over v of (v + 1) * c(v).
  std::uint64_t hub, weighted;
  std::vector<std::array<std::uint64_t, 3>> leaves;  // {r, np, count}
};

TEST(Narrowing, RecursionTreeMatchesThePinnedUnnarrowedTree) {
  const std::vector<PinnedTree> pinned = {
      {65, 252, 362, 186, 51, 12180, {{1, 0, 19}, {1, 1, 29}, {2, 0, 46},
       {1, 2, 10}, {2, 1, 39}, {3, 0, 28}, {1, 3, 2}, {2, 2, 12}, {3, 1, 2},
       {1, 4, 2}, {2, 3, 2}, {1, 5, 2}, {2, 4, 1}, {1, 6, 1}, {2, 5, 1},
       {1, 7, 1}}},
      {128, 1075, 1403, 946, 285, 163106, {{1, 0, 20}, {1, 1, 65},
       {2, 0, 278}, {1, 2, 29}, {2, 1, 101}, {3, 0, 264}, {1, 3, 4},
       {2, 2, 37}, {3, 1, 25}, {4, 0, 5}, {1, 4, 2}, {2, 3, 5}, {3, 2, 1},
       {1, 5, 2}, {2, 4, 1}, {1, 6, 2}, {2, 5, 1}, {1, 7, 2}, {2, 6, 1},
       {1, 8, 1}, {2, 7, 1}, {1, 9, 1}, {1, 10, 1}}},
      {200, 2333, 2794, 2132, 148, 117472, {{1, 0, 17}, {1, 1, 103},
       {2, 0, 684}, {1, 2, 67}, {2, 1, 196}, {3, 0, 671}, {1, 3, 6},
       {2, 2, 82}, {3, 1, 89}, {4, 0, 3}, {1, 4, 2}, {2, 3, 8}, {1, 5, 2},
       {2, 4, 1}, {1, 6, 1}, {2, 5, 1}, {1, 7, 1}, {1, 8, 1}, {1, 9, 1}}},
      {256, 3551, 4225, 3294, 146, 125716, {{1, 0, 18}, {1, 1, 115},
       {2, 0, 1058}, {1, 2, 114}, {2, 1, 296}, {3, 0, 1049}, {1, 3, 3},
       {2, 2, 129}, {3, 1, 182}, {4, 0, 8}, {1, 4, 2}, {2, 3, 7}, {1, 5, 1},
       {2, 4, 2}, {1, 6, 1}, {2, 5, 1}, {1, 7, 1}, {1, 8, 1}, {1, 9, 1}}},
      {0, 5025, 6696, 4768, 881, 354382, {{1, 0, 18}, {1, 1, 107},
       {2, 0, 1056}, {1, 2, 115}, {2, 1, 352}, {3, 0, 1052}, {1, 3, 6},
       {2, 2, 233}, {3, 1, 712}, {4, 0, 13}, {1, 4, 3}, {2, 3, 146},
       {3, 2, 261}, {4, 1, 4}, {1, 5, 3}, {2, 4, 43}, {3, 3, 29}, {4, 2, 1},
       {1, 6, 2}, {2, 5, 5}, {1, 7, 2}, {2, 6, 4}, {1, 8, 1}, {2, 7, 4},
       {2, 8, 2}}},
  };
  for (const PinnedTree& pin : pinned) {
    const Graph dag = IdentityDag(pin.d == 0 ? NestedHubGraph(700)
                                             : HubGraph(pin.d, 700 + pin.d));
    const KernelTotals all = RunKernel<BitmapKernel>(dag, CountMode::kAllK, 5);
    EXPECT_EQ(all.ops.calls, pin.calls) << "d=" << pin.d;
    EXPECT_EQ(all.ops.edge_ops, pin.edge_ops) << "d=" << pin.d;
    EXPECT_EQ(all.ops.induces, pin.induces) << "d=" << pin.d;

    CliqueProfile expected;
    for (const auto& [r, np, count] : pin.leaves)
      expected.Add(static_cast<std::uint32_t>(r),
                   static_cast<std::uint32_t>(np), count);
    EXPECT_EQ(all.profile, expected) << "d=" << pin.d;

    const KernelTotals per_vertex =
        RunKernel<BitmapKernel>(dag, CountMode::kSingleK, 5, true);
    uint128 weighted = 0;
    for (NodeId v = 0; v < dag.NumNodes(); ++v)
      weighted += (v + 1) * per_vertex.per_vertex[v].value();
    EXPECT_EQ(per_vertex.per_vertex[0].value(), pin.hub) << "d=" << pin.d;
    EXPECT_EQ(weighted, pin.weighted) << "d=" << pin.d;
  }
}

// -------------------------------------------- pipeline mode (regression)

TEST(PipelineMode, AllUpToKFlowsThroughPipeline) {
  // Pre-fix CountKCliques overwrote count.mode with kSingleK whenever
  // all_k was false, so kAllUpToK was unreachable and per_size stayed
  // empty of results.
  const Graph g = BuildGraph(CompleteGraph(12));
  PivotScaleOptions options;
  options.k = 5;
  options.count.mode = CountMode::kAllUpToK;
  options.forced_ordering = OrderingSpec{OrderingKind::kDegree};
  const PivotScaleResult result = CountKCliques(g, options);
  for (std::uint32_t s = 1; s <= 5; ++s)
    EXPECT_EQ(result.count.per_size[s].value(), BinomialChoose(12, s))
        << s;
  EXPECT_EQ(result.total.value(), BinomialChoose(12, 5));
}

TEST(PipelineMode, DefaultRemainsSingleK) {
  const Graph g = BuildGraph(CompleteGraph(10));
  PivotScaleOptions options;
  options.k = 3;
  options.forced_ordering = OrderingSpec{OrderingKind::kDegree};
  const PivotScaleResult result = CountKCliques(g, options);
  EXPECT_EQ(result.total.value(), BinomialChoose(10, 3));
}

TEST(PipelineMode, AllKStillForcesAllK) {
  const Graph g = BuildGraph(CompleteGraph(10));
  PivotScaleOptions options;
  options.k = 3;
  options.all_k = true;
  options.count.mode = CountMode::kSingleK;  // all_k must win
  options.forced_ordering = OrderingSpec{OrderingKind::kDegree};
  const PivotScaleResult result = CountKCliques(g, options);
  for (std::uint32_t s = 1; s <= 10; ++s)
    EXPECT_EQ(result.count.per_size[s].value(), BinomialChoose(10, s))
        << s;
}

// --------------------------------- busy-time team sizing (regression)

TEST(ThreadBusySeconds, SizedToActualTeamNotRequest) {
  // Inside an active parallel region with nesting disabled, OpenMP
  // delivers a team of 1 regardless of num_threads. Pre-fix the result
  // carried 4 slots, 3 of them phantom zeros diluting imbalance stats.
  const Graph g = BuildGraph(CompleteGraph(12));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  CountOptions options;
  options.k = 3;
  options.num_threads = 4;

  const int prev_levels = omp_get_max_active_levels();
  omp_set_max_active_levels(1);
  CountResult result;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    result = CountCliques(dag, options);
  }
  omp_set_max_active_levels(prev_levels);

  EXPECT_EQ(result.thread_busy_seconds.size(), 1u);
  EXPECT_EQ(result.total.value(), BinomialChoose(12, 3));
}

TEST(ThreadBusySeconds, DeliveredTeamOutsideParallelRegion) {
  const Graph g = BuildGraph(CompleteGraph(12));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  CountOptions options;
  options.k = 3;
  options.num_threads = 2;
  const CountResult result = CountCliques(dag, options);
  EXPECT_GE(result.thread_busy_seconds.size(), 1u);
  EXPECT_LE(result.thread_busy_seconds.size(), 2u);
}

}  // namespace
}  // namespace pivotscale

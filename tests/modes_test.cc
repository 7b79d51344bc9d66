// Tests for the counting-mode extensions: kAllUpToK and the
// early-termination ablation toggle.
#include <gtest/gtest.h>

#include <tuple>

#include "graph/builder.h"
#include "graph/generators.h"
#include "pivot/count.h"
#include "pivot/pivoter.h"
#include "pivot/subgraph_remap.h"
#include "test_helpers.h"
#include "util/binomial.h"

namespace pivotscale {
namespace {

using testing_helpers::BruteForceCount;
using testing_helpers::MakeDag;

template <typename Policy>
using Remap = PivotCounter<RemapSubgraph, OpCountStats, Policy>;

// ---------------------------------------------------------------- kAllUpToK

TEST(AllUpToK, MatchesAllKPrefix) {
  EdgeList edges = GnM(80, 500, 3);
  PlantCliques(&edges, 80, 2, 8, 12, 4);
  const Graph g = BuildGraph(std::move(edges));
  const Graph dag = MakeDag(g, OrderingKind::kCore);

  CountOptions all;
  all.mode = CountMode::kAllK;
  const CountResult full = CountCliques(dag, all);

  CountOptions upto;
  upto.mode = CountMode::kAllUpToK;
  upto.k = 6;
  const CountResult capped = CountCliques(dag, upto);

  for (std::uint32_t s = 1; s <= 6; ++s)
    EXPECT_EQ(capped.per_size[s], full.per_size[s]) << s;
  EXPECT_EQ(capped.total, full.per_size[6]);
}

TEST(AllUpToK, DoesLessWorkThanAllK) {
  // The cap is a pruning rule: on a graph with cliques far beyond k, the
  // capped mode must scan fewer adjacency entries.
  const Graph g = BuildGraph(CompleteGraph(40));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  CountOptions all;
  all.mode = CountMode::kAllK;
  all.collect_op_stats = true;
  CountOptions upto = all;
  upto.mode = CountMode::kAllUpToK;
  upto.k = 3;
  EXPECT_LE(CountCliques(dag, upto).ops.edge_ops,
            CountCliques(dag, all).ops.edge_ops);
}

TEST(AllUpToK, CompleteGraphClosedForm) {
  const Graph g = BuildGraph(CompleteGraph(15));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  CountOptions upto;
  upto.mode = CountMode::kAllUpToK;
  upto.k = 7;
  const CountResult result = CountCliques(dag, upto);
  for (std::uint32_t s = 1; s <= 7; ++s)
    EXPECT_EQ(result.per_size[s].value(), BinomialChoose(15, s)) << s;
}

// ------------------------------------------------------ early termination

using SweepParam = std::tuple<int, double, int>;

class EarlyTermSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EarlyTermSweep, DisablingChangesNothingButWork) {
  const auto [n, p, k] = GetParam();
  const Graph g = BuildGraph(
      ErdosRenyi(static_cast<NodeId>(n), p, /*seed=*/0xabc + n));
  if (g.NumNodes() == 0) GTEST_SKIP();
  const Graph dag = MakeDag(g, OrderingKind::kCore);

  CountOptions with_term;
  with_term.k = static_cast<std::uint32_t>(k);
  with_term.collect_op_stats = true;
  CountOptions without_term = with_term;
  without_term.early_termination = false;

  const CountResult a = CountCliques(dag, with_term);
  const CountResult b = CountCliques(dag, without_term);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.total.value(),
            static_cast<uint128>(
                BruteForceCount(g, static_cast<std::uint32_t>(k))));
  // Early termination can only reduce work.
  EXPECT_LE(a.ops.edge_ops, b.ops.edge_ops);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, EarlyTermSweep,
                         ::testing::Combine(::testing::Values(15, 25, 35),
                                            ::testing::Values(0.3, 0.6),
                                            ::testing::Values(3, 4, 5)));

TEST(EarlyTerm, PrunesHardOnBranchyGraph) {
  // On a dense random graph the recursion branches through many required
  // vertices; with early termination a k=3 count exits each branch as soon
  // as r hits 3, skipping the deep maximal-clique exploration.
  const Graph g = BuildGraph(ErdosRenyi(80, 0.4, 99));
  const Graph dag = MakeDag(g, OrderingKind::kCore);
  CountOptions with_term;
  with_term.k = 3;
  with_term.collect_op_stats = true;
  CountOptions without_term = with_term;
  without_term.early_termination = false;
  const CountResult a = CountCliques(dag, with_term);
  const CountResult b = CountCliques(dag, without_term);
  EXPECT_EQ(a.total, b.total);
  // Termination removes a solid fraction of the calls (the subtrees below
  // every r == k point).
  EXPECT_LT(static_cast<double>(a.ops.calls),
            0.9 * static_cast<double>(b.ops.calls));
}

TEST(EarlyTerm, NoOpOnPureCliques) {
  // On K_n the recursion is a single all-pivot chain per root: r never
  // grows past 1, so early termination has nothing to prune and both
  // variants do identical work (this is why pivoting handles huge cliques
  // in linear time regardless of k).
  const Graph g = BuildGraph(CompleteGraph(40));
  const Graph dag = MakeDag(g, OrderingKind::kDegree);
  const auto with_calls =
      testing_helpers::RunKernel<Remap>(dag, CountMode::kSingleK, 5, false,
                                        /*early_termination=*/true)
          .ops.calls;
  const auto without_calls =
      testing_helpers::RunKernel<Remap>(dag, CountMode::kSingleK, 5, false,
                                        /*early_termination=*/false)
          .ops.calls;
  // The only prunable work is the short-root chains: a root with
  // out-degree d < k-1 cannot reach k, so its (d+1)-call chain collapses to
  // one call, saving sum_{d=1}^{k-2} d = 6 calls for k=5. The cliques'
  // own pivot chains are untouched.
  EXPECT_EQ(without_calls - with_calls, 6u);

  // The production path's bitmap kernel counts each chain as one clique
  // leaf, so every root it visits is a single call. With early
  // termination it skips the k - 1 = 4 roots of out-degree below 4 before
  // their build (CliqueLeaves::SkipsRoot), which then pay no call.
  CountOptions with_term;
  with_term.k = 5;
  with_term.collect_op_stats = true;
  CountOptions without_term = with_term;
  without_term.early_termination = false;
  EXPECT_EQ(CountCliques(dag, with_term).ops.calls, 36u);
  EXPECT_EQ(CountCliques(dag, without_term).ops.calls, 40u);
}

}  // namespace
}  // namespace pivotscale

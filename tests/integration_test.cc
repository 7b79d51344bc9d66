// Integration tests across modules: the dataset suite through the full
// pipeline, agreement between all counters at suite scale, state reuse
// across roots, and timer/phase plumbing.
#include <gtest/gtest.h>

#include "baselines/enumeration.h"
#include "baselines/gpu_pivot_model.h"
#include "graph/dag.h"
#include "graph/datasets.h"
#include "pivot/count.h"
#include "pivot/pivoter.h"
#include "pivot/pivotscale.h"
#include "pivot/subgraph_remap.h"
#include "test_helpers.h"
#include "util/timer.h"

namespace pivotscale {
namespace {

using testing_helpers::MakeDag;

// ---------------------------------------------------------------- suite

class DatasetPipeline : public ::testing::TestWithParam<std::string> {};

TEST_P(DatasetPipeline, AllCountersAgreeAtSmallScale) {
  const Dataset d = MakeDataset(GetParam(), 0.05);
  const std::uint32_t k = 4;

  PivotScaleOptions ps_options;
  ps_options.k = k;
  const BigCount reference = CountKCliques(d.graph, ps_options).total;

  const Graph dag = MakeDag(d.graph, OrderingKind::kCore);
  EnumerationOptions enum_options;
  enum_options.k = k;
  enum_options.time_budget_seconds = 60;
  const EnumerationResult er = CountCliquesEnumeration(dag, enum_options);
  ASSERT_FALSE(er.timed_out);
  EXPECT_EQ(er.total, reference);
  EXPECT_EQ(CountCliquesGpuPivotModel(dag, k).total, reference);
}

TEST_P(DatasetPipeline, AllKConsistentWithSingleK) {
  const Dataset d = MakeDataset(GetParam(), 0.05);
  const Graph dag = MakeDag(d.graph, OrderingKind::kDegree);

  CountOptions all;
  all.mode = CountMode::kAllK;
  const CountResult all_result = CountCliques(dag, all);

  // Structural identities: 1-cliques = vertices, 2-cliques = edges.
  EXPECT_EQ(all_result.per_size[1].value(),
            static_cast<uint128>(dag.NumNodes()));
  EXPECT_EQ(all_result.per_size[2].value(),
            static_cast<uint128>(dag.NumDirectedEdges()));

  for (std::uint32_t k : {3u, 5u, 7u}) {
    CountOptions single;
    single.k = k;
    EXPECT_EQ(CountCliques(dag, single).total, all_result.per_size[k]) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, DatasetPipeline,
                         ::testing::ValuesIn(DatasetNames()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---------------------------------------------------------------- reuse

TEST(CounterReuse, ReprocessingRootsDoublesCounts) {
  // The workspace must return to a reusable state after every root: running
  // the same roots twice must exactly double the total.
  const Dataset d = MakeDataset("dblp-like", 0.05);
  const Graph dag = MakeDag(d.graph, OrderingKind::kCore);
  const std::uint32_t bound =
      static_cast<std::uint32_t>(dag.MaxDegree()) + 1;
  const BinomialTable binom(bound + 1);

  using Counter = PivotCounter<RemapSubgraph, NoStats, SingleKPolicy>;
  Counter once(dag, 5, bound, &binom);
  Counter twice(dag, 5, bound, &binom);
  for (NodeId v = 0; v < dag.NumNodes(); ++v) once.ProcessRoot(v);
  for (int round = 0; round < 2; ++round)
    for (NodeId v = 0; v < dag.NumNodes(); ++v) twice.ProcessRoot(v);
  EXPECT_EQ(twice.total(), once.total() + once.total());
}

TEST(CounterReuse, InterleavedRootsMatchSequential) {
  // Processing roots in a different order must not change the total (the
  // structures carry no cross-root state).
  const Dataset d = MakeDataset("wikitalk-like", 0.05);
  const Graph dag = MakeDag(d.graph, OrderingKind::kDegree);
  const std::uint32_t bound =
      static_cast<std::uint32_t>(dag.MaxDegree()) + 1;
  const BinomialTable binom(bound + 1);

  using Counter = PivotCounter<RemapSubgraph, NoStats, SingleKPolicy>;
  Counter forward(dag, 4, bound, &binom);
  Counter backward(dag, 4, bound, &binom);
  for (NodeId v = 0; v < dag.NumNodes(); ++v) forward.ProcessRoot(v);
  for (NodeId v = dag.NumNodes(); v > 0; --v) backward.ProcessRoot(v - 1);
  EXPECT_EQ(forward.total(), backward.total());
}

TEST(CounterReuse, ThreadCountDoesNotChangeCounts) {
  const Dataset d = MakeDataset("skitter-like", 0.05);
  const Graph dag = MakeDag(d.graph, OrderingKind::kCore);
  BigCount reference{};
  for (int threads : {1, 2, 4}) {
    CountOptions options;
    options.k = 5;
    options.num_threads = threads;
    const BigCount total = CountCliques(dag, options).total;
    if (threads == 1)
      reference = total;
    else
      EXPECT_EQ(total, reference) << threads;
  }
}

// ---------------------------------------------------------------- timers

TEST(Timers, TimerMonotone) {
  Timer t;
  const double a = t.Seconds();
  const double b = t.Seconds();
  EXPECT_GE(b, a);
  EXPECT_GE(t.Nanos(), 0u);
}

// ---------------------------------------------------------------- pipeline phases

TEST(PipelinePhases, BreakdownSumsToTotal) {
  const Dataset d = MakeDataset("dblp-like", 0.05);
  PivotScaleOptions options;
  options.k = 5;
  const PivotScaleResult r = CountKCliques(d.graph, options);
  EXPECT_NEAR(r.heuristic_seconds + r.ordering_seconds +
                  r.directionalize_seconds + r.counting_seconds,
              r.total_seconds, 1e-9);
  EXPECT_GT(r.max_out_degree, 0u);
}

}  // namespace
}  // namespace pivotscale

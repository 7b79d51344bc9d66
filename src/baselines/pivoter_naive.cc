#include "baselines/pivoter_naive.h"

#include "exec/executor.h"
#include "graph/dag.h"
#include "order/core_order.h"
#include "pivot/count.h"
#include "pivot/pivoter.h"
#include "pivot/subgraph_dense.h"
#include "util/timer.h"

namespace pivotscale {

PivoterNaiveResult RunPivoterNaive(const Graph& g, std::uint32_t k,
                                   int num_threads) {
  PivoterNaiveResult result;
  PhaseTimer phases;
  phases.Start();

  const Ordering ordering = CoreOrdering(g);
  const Graph dag = Directionalize(g, ordering.ranks);
  result.max_out_degree = MaxOutDegree(dag);
  result.ordering_seconds = phases.Stop("ordering");

  // Counting: dense structure, one contiguous block per worker
  // (chunks_per_worker = 1 reproduces a static partition), no cost model —
  // the naive parallelization this baseline exists to demonstrate.
  const NodeId n = dag.NumNodes();
  const std::uint32_t bound = static_cast<std::uint32_t>(dag.MaxDegree()) + 1;
  const BinomialTable binom(bound + 1);
  using Counter = PivotCounter<DenseSubgraph, NoStats, SingleKPolicy>;

  BigCount total{};
  ExecOptions exec_options;
  exec_options.num_threads = num_threads;
  exec_options.chunks_per_worker = 1;
  ParallelForWorkers(
      n, exec_options,
      [&](int) {
        return Counter(dag, k, bound, &binom);
      },
      [](Counter& counter, std::size_t v) {
        counter.ProcessRoot(static_cast<NodeId>(v));
      },
      [&total](Counter& counter) {
        total += counter.total();
      });
  result.total = total;
  result.counting_seconds = phases.Stop("counting");
  result.total_seconds = phases.TotalSeconds();
  return result;
}

}  // namespace pivotscale

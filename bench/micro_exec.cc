// Microbenchmarks (google-benchmark): the execution layer itself.
// Measures what the scheduler adds and costs — chunk-bound construction
// in both modes, self-scheduling overhead at different granularities,
// reduction throughput, the thread-budget lease path, and the counting
// driver on one whole-root task per vertex.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "exec/executor.h"
#include "exec/thread_budget.h"
#include "graph/builder.h"
#include "graph/dag.h"
#include "graph/generators.h"
#include "order/core_order.h"
#include "pivot/count.h"

namespace {

using namespace pivotscale;

void BM_BuildChunkBoundsUniform(benchmark::State& state) {
  ExecOptions options;
  options.chunks_per_worker = 8;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        exec_detail::BuildChunkBounds(1 << 16, 8, options).size());
}
BENCHMARK(BM_BuildChunkBoundsUniform);

void BM_BuildChunkBoundsCostWeighted(benchmark::State& state) {
  ExecOptions options;
  options.chunks_per_worker = 8;
  // Power-law-ish skew: a few heavy items, a long cheap tail.
  options.cost = [](std::size_t i) {
    return i % 997 == 0 ? 10'000.0 : 1.0;
  };
  for (auto _ : state)
    benchmark::DoNotOptimize(
        exec_detail::BuildChunkBounds(1 << 16, 8, options).size());
}
BENCHMARK(BM_BuildChunkBoundsCostWeighted);

void BM_ThreadBudgetAcquireRelease(benchmark::State& state) {
  for (auto _ : state) {
    ThreadLease lease = ThreadBudget::Global().Acquire(0);
    benchmark::DoNotOptimize(lease.threads());
  }
}
BENCHMARK(BM_ThreadBudgetAcquireRelease);

// Region launch + teardown overhead against a trivial body, across
// self-scheduling granularities (arg = chunks_per_worker).
void BM_ParallelForOverhead(benchmark::State& state) {
  ExecOptions options;
  options.chunks_per_worker = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::uint64_t sink = 0;
    ParallelFor(1 << 14, options, [&sink](std::size_t i) {
      benchmark::DoNotOptimize(sink += i);
    });
  }
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(8)->Arg(64);

void BM_ParallelReduceSum(benchmark::State& state) {
  ExecOptions options;
  for (auto _ : state) {
    const std::uint64_t total = ParallelReduce(
        std::size_t{1} << 18, options, std::uint64_t{0},
        [](std::uint64_t& acc, std::size_t i) { acc += i; },
        [](std::uint64_t& into, std::uint64_t from) { into += from; });
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ParallelReduceSum);

const Graph& BenchDag() {
  static const Graph dag = [] {
    EdgeList edges = Rmat(12, 10.0, 23);
    PlantCliques(&edges, 4096, 6, 6, 9, 24);
    const Graph g = BuildGraph(std::move(edges));
    return Directionalize(g, CoreOrdering(g).ranks);
  }();
  return dag;
}

// The counting driver: one whole-root task per DAG vertex.
void BM_CountCliques(benchmark::State& state) {
  CountOptions options;
  options.k = 6;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        CountCliques(BenchDag(), options).total.value());
}
BENCHMARK(BM_CountCliques);

}  // namespace

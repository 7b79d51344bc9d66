// Microbenchmarks (google-benchmark): the execution layer itself.
// Measures what the scheduler adds and costs — chunk-bound construction
// in both modes, region launch alone and with a trivial body at
// different granularities, reduction throughput, and the counting driver
// on one whole-root task per vertex.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "exec/executor.h"
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

// Region launch + teardown overhead against a trivial body, across
// self-scheduling granularities (arg = chunks_per_worker). Each worker
// folds into its own slot, so the body shares no cache line.
void BM_ParallelForOverhead(benchmark::State& state) {
  ExecOptions options;
  options.chunks_per_worker = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ParallelForWorkers(
        1 << 14, options, [](int) { return std::uint64_t{0}; },
        [](std::uint64_t& acc, std::size_t i) {
          acc += i;
          benchmark::DoNotOptimize(acc);
        },
        [](std::uint64_t& acc) { benchmark::DoNotOptimize(acc); });
  }
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(8)->Arg(64);

// Region launch + teardown alone: a region over no items still starts
// and joins its team.
void BM_ParallelForEmpty(benchmark::State& state) {
  ExecOptions options;
  for (auto _ : state) {
    const ExecStats stats = ParallelFor(0, options, [](std::size_t) {});
    benchmark::DoNotOptimize(stats.team);
  }
}
BENCHMARK(BM_ParallelForEmpty);

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

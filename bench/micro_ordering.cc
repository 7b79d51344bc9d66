// Microbenchmarks (google-benchmark): ordering kernels on a mid-size
// power-law graph. Shows the cost ladder the paper exploits: degree <<
// centrality < k-core < approx-core(-0.5) < exact core peel (sequential).
#include <benchmark/benchmark.h>

#include "graph/builder.h"
#include "graph/generators.h"
#include "order/approx_core_order.h"
#include "order/centrality_order.h"
#include "order/core_order.h"
#include "order/degree_order.h"
#include "order/heuristic.h"
#include "order/kcore_order.h"

namespace {

using namespace pivotscale;

const Graph& BenchGraph() {
  static const Graph g = BuildGraph(Rmat(14, 12.0, 11));
  return g;
}

void BM_DegreeOrdering(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(DegreeOrdering(BenchGraph()).ranks.size());
}
BENCHMARK(BM_DegreeOrdering);

void BM_CoreOrdering(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(CoreOrdering(BenchGraph()).ranks.size());
}
BENCHMARK(BM_CoreOrdering);

void BM_ApproxCoreOrdering(benchmark::State& state) {
  const double eps = state.range(0) / 10.0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        ApproxCoreOrdering(BenchGraph(), eps).ranks.size());
}
BENCHMARK(BM_ApproxCoreOrdering)->Arg(-5)->Arg(1)->Arg(500000);

void BM_KCoreOrdering(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(KCoreOrdering(BenchGraph()).ranks.size());
}
BENCHMARK(BM_KCoreOrdering);

void BM_CentralityOrdering(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        CentralityOrdering(BenchGraph()).ranks.size());
}
BENCHMARK(BM_CentralityOrdering);

void BM_Heuristic(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(SelectOrdering(BenchGraph()).a);
}
BENCHMARK(BM_Heuristic);

}  // namespace

// Microbenchmarks (google-benchmark): first-level subgraph construction and
// full per-root counting for the three structures. These isolate the access
// costs the paper discusses — dense's direct indexing, sparse's per-access
// hash lookup (~1.2x), and remap's pay-hash-once design. The bitmap rows
// time the production kernel (pivot/bitmap_counter.h) on the same roots,
// so the per-root cost of remap and bitmap can be compared directly.
#include <benchmark/benchmark.h>

#include "graph/builder.h"
#include "graph/dag.h"
#include "graph/generators.h"
#include "order/core_order.h"
#include "pivot/bitmap_counter.h"
#include "pivot/pivoter.h"
#include "pivot/subgraph_bitmap.h"
#include "pivot/subgraph_dense.h"
#include "pivot/subgraph_remap.h"
#include "pivot/subgraph_sparse.h"
#include "util/binomial.h"

namespace {

using namespace pivotscale;

const Graph& BenchDag() {
  static const Graph dag = [] {
    EdgeList edges = Rmat(13, 10.0, 7);
    PlantCliques(&edges, 4096, 16, 8, 20, 8);
    const Graph g = BuildGraph(std::move(edges));
    return Directionalize(g, CoreOrdering(g).ranks);
  }();
  return dag;
}

template <typename SG>
void BM_SubgraphBuild(benchmark::State& state) {
  const Graph& dag = BenchDag();
  SG sg;
  sg.Attach(dag);
  NodeId v = 0;
  for (auto _ : state) {
    sg.Build(v);
    benchmark::DoNotOptimize(sg.Vertices().size());
    v = (v + 1) % dag.NumNodes();
  }
}
BENCHMARK(BM_SubgraphBuild<DenseSubgraph>);
BENCHMARK(BM_SubgraphBuild<SparseSubgraph>);
BENCHMARK(BM_SubgraphBuild<RemapSubgraph>);

void BM_SubgraphBuildBitmap(benchmark::State& state) {
  const Graph& dag = BenchDag();
  SubgraphBitmap sg;
  sg.Attach(dag);
  NodeId v = 0;
  for (auto _ : state) {
    sg.Build(v);
    benchmark::DoNotOptimize(sg.data());
    v = (v + 1) % dag.NumNodes();
  }
}
BENCHMARK(BM_SubgraphBuildBitmap);

// Counter is PivotCounter<SG, NoStats> or BitmapCounter<NoStats>.
template <typename Counter>
void BM_ProcessRoot(benchmark::State& state) {
  const Graph& dag = BenchDag();
  const std::uint32_t bound =
      static_cast<std::uint32_t>(dag.MaxDegree()) + 1;
  static const BinomialTable binom(bound + 1);
  Counter counter(dag, CountMode::kSingleK, 8, /*per_vertex=*/false, bound,
                  &binom);
  NodeId v = 0;
  for (auto _ : state) {
    counter.ProcessRoot(v);
    benchmark::DoNotOptimize(counter.total());
    v = (v + 1) % dag.NumNodes();
  }
}
using DenseCounter = PivotCounter<DenseSubgraph, NoStats>;
using SparseCounter = PivotCounter<SparseSubgraph, NoStats>;
using RemapCounter = PivotCounter<RemapSubgraph, NoStats>;
using BitmapKernel = BitmapCounter<NoStats>;
BENCHMARK(BM_ProcessRoot<DenseCounter>);
BENCHMARK(BM_ProcessRoot<SparseCounter>);
BENCHMARK(BM_ProcessRoot<RemapCounter>);
BENCHMARK(BM_ProcessRoot<BitmapKernel>);

}  // namespace

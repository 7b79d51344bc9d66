// Microbenchmarks (google-benchmark): first-level subgraph construction and
// full per-root counting for the three structures. These isolate the access
// costs the paper discusses — dense's direct indexing, sparse's per-access
// hash lookup (~1.2x), and remap's pay-hash-once design. The bitmap rows
// time the production kernel (pivot/bitmap_counter.h) on the same roots,
// so the per-root cost of remap and bitmap can be compared directly. The
// planted-clique rows compare the two on roots wider than four words.
#include <benchmark/benchmark.h>

#include <numeric>
#include <utility>
#include <vector>

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
#include "util/rng.h"

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

// A 450-clique, the size of WebEdu's largest (PAPER.md Table I), plus 30
// vertices each joined to a seeded half of it, in core order: the clique's
// roots have out-degrees up to 449, up to eight words.
const Graph& PlantedCliqueDag() {
  static const Graph dag = [] {
    constexpr NodeId kClique = 450;
    constexpr NodeId kOutside = 30;
    EdgeList edges = CompleteGraph(kClique);
    Rng rng(17);
    std::vector<NodeId> members(kClique);
    for (NodeId x = kClique; x < kClique + kOutside; ++x) {
      std::iota(members.begin(), members.end(), NodeId{0});
      for (NodeId i = 0; i < kClique / 2; ++i) {
        std::swap(members[i], members[i + rng.Below(kClique - i)]);
        edges.emplace_back(x, members[i]);
      }
    }
    const Graph g = BuildUndirected(std::move(edges), kClique + kOutside);
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

// Counts k = 8 cliques root after root of `dag`, one root per iteration.
// Counter is PivotCounter<SG, NoStats, SingleKPolicy> or
// BitmapCounter<NoStats, SingleKPolicy>.
template <typename Counter>
void ProcessRoots(benchmark::State& state, const Graph& dag) {
  const std::uint32_t bound =
      static_cast<std::uint32_t>(dag.MaxDegree()) + 1;
  const BinomialTable binom(bound + 1);
  Counter counter(dag, 8, bound, &binom);
  NodeId v = 0;
  for (auto _ : state) {
    counter.ProcessRoot(v);
    benchmark::DoNotOptimize(counter.total());
    v = (v + 1) % dag.NumNodes();
  }
}

template <typename Counter>
void BM_ProcessRoot(benchmark::State& state) {
  ProcessRoots<Counter>(state, BenchDag());
}
template <typename Counter>
void BM_ProcessRootPlanted(benchmark::State& state) {
  ProcessRoots<Counter>(state, PlantedCliqueDag());
}
using DenseCounter = PivotCounter<DenseSubgraph, NoStats, SingleKPolicy>;
using SparseCounter = PivotCounter<SparseSubgraph, NoStats, SingleKPolicy>;
using RemapCounter = PivotCounter<RemapSubgraph, NoStats, SingleKPolicy>;
using BitmapKernel = BitmapCounter<NoStats, SingleKPolicy>;
BENCHMARK(BM_ProcessRoot<DenseCounter>);
BENCHMARK(BM_ProcessRoot<SparseCounter>);
BENCHMARK(BM_ProcessRoot<RemapCounter>);
BENCHMARK(BM_ProcessRoot<BitmapKernel>);
BENCHMARK(BM_ProcessRootPlanted<RemapCounter>);
BENCHMARK(BM_ProcessRootPlanted<BitmapKernel>);

}  // namespace

// Section VI-D memory study: per-thread workspace of each subgraph
// structure (measured exactly), the modeled 64-thread aggregate, the
// compression ratio versus dense, and the cache-simulator locality proxy.
// The paper reports 6.6-40x memory reduction (geomean 17.4x) and 1.2-77x
// fewer cache misses for the compact structures.
#include <iostream>

#include "bench_common.h"
#include "graph/dag.h"
#include "order/core_order.h"
#include "pivot/count_on.h"
#include "pivot/pivoter.h"
#include "pivot/subgraph_dense.h"
#include "pivot/subgraph_remap.h"
#include "pivot/subgraph_sparse.h"
#include "sim/cache_sim.h"
#include "sim/mem_model.h"
#include "util/mem.h"
#include "util/stats.h"
#include "util/table.h"

using namespace pivotscale;

namespace {

// Measured single-thread workspace after a full counting run.
std::size_t MeasureWorkspace(const Graph& dag, std::uint32_t k,
                             SubgraphKind kind) {
  CountOptions options;
  options.k = k;
  options.num_threads = 1;
  return CountCliquesOn(dag, options, kind).workspace_bytes;
}

// Cache-replay miss rate over a root sample for one structure.
template <typename SG>
double ReplayMissRate(const Graph& dag, std::uint32_t k, NodeId sample) {
  CacheSim cache(std::size_t{4} << 20, 16, 64);
  const BinomialTable binom(
      static_cast<std::uint32_t>(dag.MaxDegree()) + 2);
  PivotCounter<SG, TraceStats<CacheSim>, SingleKPolicy> counter(
      dag, k, static_cast<std::uint32_t>(dag.MaxDegree()) + 1, &binom);
  counter.stats().sink = &cache;
  const NodeId n = std::min(dag.NumNodes(), sample);
  for (NodeId v = 0; v < n; ++v) counter.ProcessRoot(v);
  return cache.MissesPerKiloAccess();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto suite = bench::LoadSuite(args);
  const auto k = args.GetK(8);
  const auto sample = static_cast<NodeId>(args.GetInt("sample-roots", 3000));
  const int threads = static_cast<int>(args.GetInt("threads", 64));

  TablePrinter table(
      "Section VI-D: subgraph-structure memory and locality (k=" +
          std::to_string(k) + ", modeled at " + std::to_string(threads) +
          " threads)",
      {"graph", "dense/thr", "sparse/thr", "remap/thr", "dense agg",
       "remap agg", "mem ratio", "dense m/ka", "sparse m/ka",
       "remap m/ka"});

  std::vector<double> mem_ratios, miss_ratios;
  for (const Dataset& d : suite) {
    const Graph dag = Directionalize(d.graph, CoreOrdering(d.graph).ranks);
    const std::size_t dense_b =
        MeasureWorkspace(dag, k, SubgraphKind::kDense);
    const std::size_t sparse_b =
        MeasureWorkspace(dag, k, SubgraphKind::kSparse);
    const std::size_t remap_b =
        MeasureWorkspace(dag, k, SubgraphKind::kRemap);
    const std::size_t dense_agg = AggregateWorkspaceBytes(
        SubgraphKind::kDense, dag.NumNodes(), dag.MaxDegree(), threads,
        dense_b);
    const std::size_t remap_agg = AggregateWorkspaceBytes(
        SubgraphKind::kRemap, dag.NumNodes(), dag.MaxDegree(), threads,
        remap_b);
    const double ratio = static_cast<double>(dense_b) /
                         static_cast<double>(std::max<std::size_t>(
                             1, std::max(sparse_b, remap_b)));
    mem_ratios.push_back(ratio);

    const double dense_miss = ReplayMissRate<DenseSubgraph>(dag, k, sample);
    const double sparse_miss =
        ReplayMissRate<SparseSubgraph>(dag, k, sample);
    const double remap_miss = ReplayMissRate<RemapSubgraph>(dag, k, sample);
    if (remap_miss > 0) miss_ratios.push_back(dense_miss / remap_miss);

    table.AddRow({d.name, HumanBytes(dense_b), HumanBytes(sparse_b),
                  HumanBytes(remap_b), HumanBytes(dense_agg),
                  HumanBytes(remap_agg), TablePrinter::Cell(ratio, 1),
                  TablePrinter::Cell(dense_miss, 2),
                  TablePrinter::Cell(sparse_miss, 2),
                  TablePrinter::Cell(remap_miss, 2)});
  }
  table.Print();
  std::cout << "memory compression geomean: "
            << TablePrinter::Cell(GeoMean(mem_ratios), 2)
            << "x  (paper: 17.39x over 6.63-40.24x)\n";
  if (!miss_ratios.empty())
    std::cout << "cache-miss reduction geomean (dense/remap): "
              << TablePrinter::Cell(GeoMean(miss_ratios), 2)
              << "x  (paper: 9.98x over 1.24-77x)\n";
  std::cout << "process peak RSS: " << HumanBytes(PeakRssBytes()) << "\n";
  return 0;
}

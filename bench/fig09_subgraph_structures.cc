// Figure 9: counting performance of the three subgraph structures
// normalized to dense (higher is better). The paper's result: remap >=
// dense >= sparse in speed, with remap and sparse using far less memory
// (see bench/memory_study for the memory side).
//
// Each paper structure is timed pure: one PivotCounter<SG, NoStats> per
// worker over every root, with the driver's cost-weighted chunking but no
// kernel selection (the pattern of
// baselines/pivoter_naive.cc). The "production" column is CountCliques
// itself, which runs the bitmap kernel (pivot/bitmap_counter.h) on every
// subgraph; it is not a paper structure.
#include <iostream>

#include "bench_common.h"
#include "exec/executor.h"
#include "graph/dag.h"
#include "order/core_order.h"
#include "pivot/count.h"
#include "pivot/pivoter.h"
#include "pivot/subgraph_dense.h"
#include "pivot/subgraph_remap.h"
#include "pivot/subgraph_sparse.h"
#include "util/binomial.h"
#include "util/table.h"
#include "util/timer.h"

using namespace pivotscale;

namespace {

// Counts k-cliques on structure SG; returns the wall seconds.
template <typename SG>
double TimeStructure(const Graph& dag, std::uint32_t k, BigCount* total) {
  const std::uint32_t bound = static_cast<std::uint32_t>(dag.MaxDegree()) + 1;
  const BinomialTable binom(bound + 1);
  using Counter = PivotCounter<SG, NoStats, SingleKPolicy>;
  ExecOptions exec_options;
  exec_options.chunks_per_worker = 16;
  exec_options.cost = [&dag](std::size_t v) {
    const double d = dag.Degree(static_cast<NodeId>(v));
    return (d + 1) * (d + 1);
  };
  *total = BigCount{};
  Timer timer;
  ParallelForWorkers(
      dag.NumNodes(), exec_options,
      [&](int) {
        return Counter(dag, k, bound, &binom);
      },
      [](Counter& counter, std::size_t v) {
        counter.ProcessRoot(static_cast<NodeId>(v));
      },
      [total](Counter& counter) {
        *total += counter.total();
      });
  return timer.Seconds();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto suite = bench::LoadSuite(args);
  const auto k = args.GetK(8);

  TablePrinter table(
      "Figure 9: counting throughput normalized to dense (k=" +
          std::to_string(k) + ", higher is better)",
      {"graph", "dense", "sparse", "remap", "production", "dense (s)",
       "sparse (s)", "remap (s)", "production (s)"});

  for (const Dataset& d : suite) {
    const Graph dag = Directionalize(d.graph, CoreOrdering(d.graph).ranks);
    BigCount totals[3];
    const double dense = TimeStructure<DenseSubgraph>(dag, k, &totals[0]);
    const double sparse = TimeStructure<SparseSubgraph>(dag, k, &totals[1]);
    const double remap = TimeStructure<RemapSubgraph>(dag, k, &totals[2]);
    CountOptions options;
    options.k = k;
    Timer timer;
    const BigCount production_total = CountCliques(dag, options).total;
    const double production = timer.Seconds();
    for (const BigCount& t : totals) {
      if (t != production_total) {
        std::cerr << "fig09: " << d.name << " structures disagree: "
                  << t.ToString() << " vs " << production_total.ToString()
                  << "\n";
        return 1;
      }
    }
    table.AddRow({d.name, TablePrinter::Cell(1.0, 2),
                  TablePrinter::Cell(dense / sparse, 2),
                  TablePrinter::Cell(dense / remap, 2),
                  TablePrinter::Cell(dense / production, 2),
                  TablePrinter::Cell(dense, 3), TablePrinter::Cell(sparse, 3),
                  TablePrinter::Cell(remap, 3),
                  TablePrinter::Cell(production, 3)});
  }
  table.Print();
  return 0;
}

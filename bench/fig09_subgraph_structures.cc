// Figure 9: counting performance of the three subgraph structures
// normalized to dense (higher is better). The paper's result: remap >=
// dense >= sparse in speed, with remap and sparse using far less memory
// (see bench/memory_study for the memory side).
//
// Each kernel is timed pure through CountCliquesOn (pivot/count_on.h):
// one counter per worker over every root, with the driver's cost-weighted
// chunking and no CPU fallback. The "production" column is the bitmap
// kernel (pivot/bitmap_counter.h), which CountCliques runs; it is not a
// paper structure.
#include <iostream>

#include "bench_common.h"
#include "graph/dag.h"
#include "order/core_order.h"
#include "pivot/count_on.h"
#include "util/table.h"
#include "util/timer.h"

using namespace pivotscale;

namespace {

// Counts k-cliques on one kernel; returns the wall seconds.
double TimeKernel(const Graph& dag, std::uint32_t k, SubgraphKind kind,
                  BigCount* total) {
  CountOptions options;
  options.k = k;
  Timer timer;
  *total = CountCliquesOn(dag, options, kind).total;
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
    BigCount production_total;
    const double dense =
        TimeKernel(dag, k, SubgraphKind::kDense, &totals[0]);
    const double sparse =
        TimeKernel(dag, k, SubgraphKind::kSparse, &totals[1]);
    const double remap =
        TimeKernel(dag, k, SubgraphKind::kRemap, &totals[2]);
    const double production =
        TimeKernel(dag, k, SubgraphKind::kBitmap, &production_total);
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

// Table III: sequential core ordering vs parallel degree ordering for
// counting 8-cliques — ordering time, counting time, total time, and
// ordering quality (max out-degree) per graph, fastest total flagged.
#include <iostream>

#include "bench_common.h"
#include "graph/dag.h"
#include "order/core_order.h"
#include "order/degree_order.h"
#include "pivot/count.h"
#include "util/table.h"
#include "util/timer.h"

using namespace pivotscale;

namespace {

struct PhaseRow {
  double ordering_seconds = 0;
  double counting_seconds = 0;
  double total_seconds = 0;
  EdgeId max_out_degree = 0;
};

PhaseRow RunWith(const Graph& g, const Ordering& ordering, std::uint32_t k,
                 double ordering_seconds) {
  PhaseRow row;
  row.ordering_seconds = ordering_seconds;
  Timer timer;
  const Graph dag = Directionalize(g, ordering.ranks);
  row.max_out_degree = MaxOutDegree(dag);
  CountOptions options;
  options.k = k;
  row.counting_seconds = timer.Seconds();  // directionalize charged here
  Timer count_timer;
  CountCliques(dag, options);
  row.counting_seconds += count_timer.Seconds();
  row.total_seconds = row.ordering_seconds + row.counting_seconds;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto suite = bench::LoadSuite(args);
  const auto k = args.GetK(8);

  TablePrinter table(
      "Table III: core vs degree ordering (k=" + std::to_string(k) + ")",
      {"graph", "core ord (s)", "core cnt (s)", "core total (s)",
       "core maxout", "deg ord (s)", "deg cnt (s)", "deg total (s)",
       "deg maxout", "winner"});

  for (const Dataset& d : suite) {
    Timer t1;
    const Ordering core = CoreOrdering(d.graph);
    const double core_order_s = t1.Seconds();
    const PhaseRow core_row = RunWith(d.graph, core, k, core_order_s);

    Timer t2;
    const Ordering degree = DegreeOrdering(d.graph);
    const double degree_order_s = t2.Seconds();
    const PhaseRow deg_row = RunWith(d.graph, degree, k, degree_order_s);

    table.AddRow(
        {d.name, TablePrinter::Cell(core_row.ordering_seconds, 3),
         TablePrinter::Cell(core_row.counting_seconds, 3),
         TablePrinter::Cell(core_row.total_seconds, 3),
         TablePrinter::Cell(std::uint64_t{core_row.max_out_degree}),
         TablePrinter::Cell(deg_row.ordering_seconds, 3),
         TablePrinter::Cell(deg_row.counting_seconds, 3),
         TablePrinter::Cell(deg_row.total_seconds, 3),
         TablePrinter::Cell(std::uint64_t{deg_row.max_out_degree}),
         core_row.total_seconds <= deg_row.total_seconds ? "core"
                                                         : "degree"});
  }
  table.Print();
  return 0;
}

// Figure 8: total execution time (ordering + directionalize + counting)
// speedup over the core ordering for counting 8-cliques.
//
// The headline comparison is at the paper's 64-thread operating point
// (modeled: parallel ordering passes / 64 + per-round barriers, counting
// as work-trace makespan); the measured single-core totals are printed
// alongside. Paper takeaway: where core ordering wins the counting phase,
// approx(-0.5) wins overall (same counting, much faster ordering); degree
// wins the DBLP/Baidu/Friendster class.
#include <iostream>

#include "bench_common.h"
#include "util/table.h"

using namespace pivotscale;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto suite = bench::LoadSuite(args);
  const auto sweep = bench::OrderingSweep();
  const auto k = args.GetK(8);

  std::vector<std::string> header = {"graph"};
  for (const auto& named : sweep) header.push_back(named.label + "@64");
  for (const auto& named : sweep) header.push_back(named.label + "@1");
  header.push_back("best@64");
  TablePrinter table("Figure 8: total-time speedup over core (k=" +
                         std::to_string(k) + ", higher is better)",
                     header);

  for (const Dataset& d : suite) {
    std::vector<std::string> row = {d.name};
    std::vector<bench::OrderingRun> runs;
    for (const auto& named : sweep)
      runs.push_back(bench::EvaluateOrdering(d.graph, named, k));
    const double core_64 = runs[0].Total64();
    const double core_1 = runs[0].Total1();

    double best_speedup = 0;
    std::string best_label;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const double speedup =
          runs[i].Total64() > 0 ? core_64 / runs[i].Total64() : 0.0;
      if (speedup > best_speedup) {
        best_speedup = speedup;
        best_label = sweep[i].label;
      }
      row.push_back(TablePrinter::Cell(speedup, 2));
    }
    for (const auto& run : runs)
      row.push_back(TablePrinter::Cell(
          run.Total1() > 0 ? core_1 / run.Total1() : 0.0, 2));
    row.push_back(best_label);
    table.AddRow(std::move(row));
  }
  table.Print();
  return 0;
}

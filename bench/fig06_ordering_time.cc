// Figure 6: ordering-time speedup over the (sequential) core ordering.
//
// The paper measures this at 64 threads, where the parallel orderings'
// round-based structure pays off. On one core the approximation does
// strictly more passes than the exact peel, so this bench reports both:
// the measured single-core speedup, and a modeled 64-thread speedup
// (bench::OrderingSeconds64: parallel work / 64 + a per-round barrier
// cost; the exact core peel stays sequential). Round counts come from
// Ordering::rounds; eps = -0.5's are printed alongside (paper: 160-6033
// rounds for eps = -0.5, 8-15 for eps = 0.1).
#include <iostream>

#include "bench_common.h"
#include "util/table.h"
#include "util/timer.h"

using namespace pivotscale;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto suite = bench::LoadSuite(args);
  const auto sweep = bench::OrderingSweep();
  const int trials = static_cast<int>(args.GetInt("trials", 3));

  std::vector<std::string> header = {"graph"};
  for (const auto& named : sweep) header.push_back(named.label);
  for (const auto& named : sweep)
    if (named.label != "core") header.push_back(named.label + "@64");
  header.push_back("rounds eps=-0.5");
  TablePrinter table(
      "Figure 6: ordering-time speedup over core (measured 1-core and "
      "modeled 64-thread; higher is better)",
      header);

  for (const Dataset& d : suite) {
    std::vector<std::string> row = {d.name};
    double core_seconds = 0;
    std::vector<double> serial_seconds;
    std::vector<int> rounds;
    for (const auto& named : sweep) {
      double best = 1e30;
      int named_rounds = 0;
      for (int t = 0; t < trials; ++t) {
        Timer timer;
        named_rounds = ComputeOrdering(d.graph, named.spec).rounds;
        best = std::min(best, timer.Seconds());
      }
      if (named.label == "core") core_seconds = best;
      serial_seconds.push_back(best);
      rounds.push_back(named_rounds);
      row.push_back(
          TablePrinter::Cell(best > 0 ? core_seconds / best : 0.0, 2));
    }
    int approx_low_rounds = 0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      if (sweep[i].label == "core") continue;
      const double at64 =
          bench::OrderingSeconds64(serial_seconds[i], rounds[i]);
      row.push_back(
          TablePrinter::Cell(at64 > 0 ? core_seconds / at64 : 0.0, 1));
      if (sweep[i].label == "approx(-0.5)") approx_low_rounds = rounds[i];
    }
    row.push_back(TablePrinter::Cell(std::int64_t{approx_low_rounds}));
    table.AddRow(std::move(row));
  }
  table.Print();
  return 0;
}

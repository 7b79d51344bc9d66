// Figure 7: counting-time speedup over the core ordering for counting
// 8-cliques under each alternative ordering.
//
// Two views per ordering: the measured single-core speedup, and the
// 64-thread speedup from replaying each run's work trace through the
// scaling simulator (the paper's operating point — at one core the degree
// ordering's locality advantage is amplified because there is no shared
// LLC contention; see EXPERIMENTS.md). Paper shape: core and approx(-0.5)
// lead on clique-rich graphs; degree matches or wins on DBLP/Baidu/
// Friendster-class graphs.
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
  for (const auto& named : sweep) header.push_back(named.label);
  for (const auto& named : sweep)
    if (named.label != "core") header.push_back(named.label + "@64");
  TablePrinter table("Figure 7: counting-time speedup over core (k=" +
                         std::to_string(k) + ", higher is better)",
                     header);

  TelemetryRegistry telemetry;
  TelemetryRegistry* telemetry_ptr =
      args.Has("telemetry-json") ? &telemetry : nullptr;
  for (const Dataset& d : suite) {
    std::vector<std::string> row = {d.name};
    std::vector<bench::OrderingRun> runs;
    for (const auto& named : sweep)
      runs.push_back(
          bench::EvaluateOrdering(d.graph, named, k, telemetry_ptr));
    const double core_1 = runs[0].count_seconds;
    const double core_64 = runs[0].count_seconds64;
    for (const auto& run : runs)
      row.push_back(TablePrinter::Cell(
          run.count_seconds > 0 ? core_1 / run.count_seconds : 0.0, 2));
    for (std::size_t i = 1; i < runs.size(); ++i)
      row.push_back(TablePrinter::Cell(
          runs[i].count_seconds64 > 0 ? core_64 / runs[i].count_seconds64
                                      : 0.0,
          2));
    table.AddRow(std::move(row));
  }
  table.Print();
  bench::EmitTelemetryIfRequested(args, telemetry);
  return 0;
}

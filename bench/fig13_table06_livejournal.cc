// Figure 13 + Table VI: the LiveJournal deep dive. On this clique-rich
// graph execution time climbs with k for both pivoting implementations
// (unlike every other graph), the GPU-Pivot model climbs faster, and
// PivotScale wins at every k. Table VI additionally reports the exact
// k-clique counts — on the real LiveJournal this work was the first to
// report k > 10. Following the paper, the GPU-Pivot comparison stops at
// k = 8 (GPU-Pivot reports no LiveJournal numbers beyond that); the
// PivotScale@64sim column replays the work trace through the scaling
// simulator (the paper's 64-thread configuration).
#include <iostream>

#include "baselines/gpu_pivot_model.h"
#include "bench_common.h"
#include "graph/dag.h"
#include "order/approx_core_order.h"
#include "order/core_order.h"
#include "pivot/pivotscale.h"
#include "sim/scaling_sim.h"
#include "util/ascii_chart.h"
#include "util/table.h"
#include "util/timer.h"

using namespace pivotscale;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const double scale = args.GetDouble("scale", 1.0);
  const auto ks = args.GetIntList("ks", {6, 7, 8, 9, 10, 11});
  const std::int64_t gpu_max_k = args.GetInt("gpu-max-k", 8);
  const Dataset d = MakeDataset("livejournal-like", scale);
  const HeuristicConfig config = bench::SuiteHeuristicConfig();

  TablePrinter table(
      "Table VI / Figure 13: livejournal-like deep dive (total seconds)",
      {"k", "k-cliques", "PivotScale", "PivotScale@64sim",
       "GPU-Pivot(model)", "PS growth vs prev k"});

  // Shared DAG for the trace-driven simulation and the GPU model.
  const Graph dag = Directionalize(d.graph, CoreOrdering(d.graph).ranks);

  std::vector<std::string> xs;
  ChartSeries ps_series{"PivotScale", {}}, gpu_series{"GPU-Pivot(model)", {}};
  double prev_ps = 0;
  for (std::int64_t k64 : ks) {
    const auto k = static_cast<std::uint32_t>(k64);

    const bench::TracedPipeline traced =
        bench::RunTracedPipeline(d.graph, k, config);
    const PivotScaleResult& ps = traced.result;

    ScalingSimConfig sim;
    sim.num_threads = 64;
    sim.cache_capacity_bytes = std::size_t{12} << 20;  // scaled LLC (fig11)
    sim.per_thread_footprint_bytes = ps.count.workspace_bytes;
    const double ps_sim64 =
        ps.heuristic_seconds + ps.ordering_seconds / 64 +
        SimulateScaling(traced.trace, sim).makespan_seconds;

    std::string gpu_cell = "-";
    xs.push_back(std::to_string(k64));
    ps_series.values.push_back(ps.total_seconds);
    if (k64 <= gpu_max_k) {
      Timer gpu_timer;
      CountCliquesGpuPivotModel(dag, k);
      const double gpu_seconds = gpu_timer.Seconds();
      gpu_series.values.push_back(gpu_seconds);
      gpu_cell = TablePrinter::Cell(gpu_seconds, 3);
    }

    table.AddRow({TablePrinter::Cell(k64), ps.total.ToString(),
                  TablePrinter::Cell(ps.total_seconds, 3),
                  TablePrinter::Cell(ps_sim64, 3), gpu_cell,
                  prev_ps > 0
                      ? TablePrinter::Cell(ps.total_seconds / prev_ps, 2)
                      : "-"});
    prev_ps = ps.total_seconds;
  }
  table.Print();
  ChartOptions chart_options;
  chart_options.y_label = "seconds";
  std::cout << RenderChart(xs, {ps_series, gpu_series}, chart_options);
  return 0;
}

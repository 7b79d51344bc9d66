// Figure 11: parallel scalability of PivotScale's three subgraph structures
// for counting 6- and 12-cliques, at 1..64 threads.
//
// Single-core substitution (DESIGN.md): the real counter records a per-root
// work trace; the scaling simulator replays it under dynamic chunked
// scheduling with the measured per-thread structure footprint driving the
// memory-contention model. The modeled LLC defaults to 12 MB (--cache-mb):
// the analog graphs are ~100x smaller than the paper's, so the paper's
// 256 MB LLC is scaled with them to preserve the footprint:cache ratios
// that produce its findings. Expected shape: near-linear scaling
// everywhere, except the dense structure plateauing at >=32 threads on
// graphs whose |V|-sized per-thread indices spill the modeled LLC. The
// busy-time CoV column checks the paper's load-balance claim (CoV ~ 0.03).
//
// --json <path> additionally re-runs each series for real (whole-machine
// executor, after one untimed warm-up run) and writes one JSON document pairing the simulated speedup
// curves with the measured scheduler stats: the realized team and its
// busy-time CoV. docs/parallelism.md explains the fields.
#include <iostream>

#include "bench_common.h"
#include "graph/dag.h"
#include "order/core_order.h"
#include "pivot/count_on.h"
#include "sim/mem_model.h"
#include "sim/scaling_sim.h"
#include "sim/work_trace.h"
#include "util/ascii_chart.h"
#include "util/atomic_file.h"
#include "util/json_writer.h"
#include "util/table.h"

using namespace pivotscale;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto suite = bench::LoadSuite(args);
  const auto ks = args.GetIntList("ks", {6, 12});
  const auto thread_counts = args.GetIntList("threads", {1, 2, 4, 8, 16, 32, 64});
  const auto cache_mb = args.GetInt("cache-mb", 12);

  TelemetryRegistry telemetry;
  TelemetryRegistry* telemetry_ptr =
      args.Has("telemetry-json") ? &telemetry : nullptr;
  const std::string json_path = args.GetString("json", "");

  JsonWriter json;
  if (!json_path.empty()) {
    json.BeginObject();
    json.Key("schema");
    json.Value("pivotscale.fig11");
    json.Key("version");
    json.Value(std::uint64_t{1});
    json.Key("cache_mb");
    json.Value(cache_mb);
    json.Key("threads");
    json.BeginArray();
    for (std::int64_t t : thread_counts) json.Value(t);
    json.EndArray();
    json.Key("series");
    json.BeginArray();
  }
  for (const Dataset& d : suite) {
    const Graph dag = Directionalize(d.graph, CoreOrdering(d.graph).ranks);
    for (std::int64_t k64 : ks) {
      const auto k = static_cast<std::uint32_t>(k64);
      std::vector<std::string> header = {"structure"};
      for (std::int64_t t : thread_counts)
        header.push_back("T=" + std::to_string(t));
      header.push_back("CoV@64");
      TablePrinter table("Figure 11 series: " + d.name +
                             " k=" + std::to_string(k) +
                             " (self-relative speedup, simulated)",
                         header);

      std::vector<ChartSeries> chart_series;
      for (auto kind : {SubgraphKind::kDense, SubgraphKind::kSparse,
                        SubgraphKind::kRemap}) {
        CountOptions options;
        options.k = k;
        options.num_threads = 1;
        options.telemetry = telemetry_ptr;
        WorkTrace trace;
        const CountResult result = CountCliquesOn(dag, options, kind, &trace);

        ScalingSimConfig config;
        config.cache_capacity_bytes =
            static_cast<std::size_t>(cache_mb) << 20;
        config.per_thread_footprint_bytes = result.workspace_bytes;
        std::vector<std::string> row = {SubgraphKindName(kind)};
        ChartSeries series{SubgraphKindName(kind), {}};
        double cov64 = 0;
        for (std::int64_t t : thread_counts) {
          config.num_threads = static_cast<int>(t);
          const double speedup = SimulateSpeedup(trace, config);
          series.values.push_back(speedup);
          row.push_back(TablePrinter::Cell(speedup, 1));
          if (t == 64)
            cov64 = SimulateScaling(trace, config).busy_cov;
        }
        if (!json_path.empty()) {
          // Real run (no trace, every free thread): the simulated curves
          // say how the trace *should* scale; these fields say what the
          // scheduler actually did to it. An untimed run first, so the
          // pool's helpers, parked during the serial simulation above, are
          // awake when the measured run starts.
          CountOptions measured_options;
          measured_options.k = k;
          CountCliquesOn(dag, measured_options, kind);
          TelemetryRegistry measured;
          measured_options.telemetry = &measured;
          CountCliquesOn(dag, measured_options, kind);
          json.BeginObject();
          json.Key("dataset");
          json.Value(d.name);
          json.Key("k");
          json.Value(std::uint64_t{k});
          json.Key("structure");
          json.Value(SubgraphKindName(kind));
          json.Key("speedup");
          json.BeginArray();
          for (const double s : series.values) json.Value(s);
          json.EndArray();
          json.Key("sim_cov64");
          json.Value(cov64);
          json.Key("measured_team");
          json.Value(measured.Gauge("exec.team"));
          json.Key("measured_busy_cov");
          json.Value(measured.Gauge("exec.busy_cov"));
          json.Key("measured_seconds");
          json.Value(measured.SpanSeconds("exec.region_wall"));
          json.EndObject();
        }
        chart_series.push_back(std::move(series));
        row.push_back(TablePrinter::Cell(cov64, 3));
        table.AddRow(std::move(row));
      }
      table.Print();
      std::vector<std::string> xs;
      for (std::int64_t t : thread_counts) xs.push_back(std::to_string(t));
      ChartOptions chart_options;
      chart_options.y_label = "speedup";
      std::cout << RenderChart(xs, chart_series, chart_options) << "\n";
    }
  }
  if (!json_path.empty()) {
    json.EndArray();
    json.EndObject();
    WriteFileAtomic(json_path, json.str() + '\n');
    std::cout << "wrote " << json_path << "\n";
  }
  bench::EmitTelemetryIfRequested(args, telemetry);
  return 0;
}

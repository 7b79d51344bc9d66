// Shared plumbing for the bench harness binaries.
//
// Every bench binary reproduces one paper table or figure on the synthetic
// dataset suite. Common flags:
//   --scale S        dataset scale factor (default 1.0; see datasets.h)
//   --datasets a,b   comma-separated subset of suite names
//   --k K            target clique size where applicable
//   --telemetry-json P  write run telemetry as one JSON document to P
// All binaries run with no arguments in bounded time.
#ifndef PIVOTSCALE_BENCH_BENCH_COMMON_H_
#define PIVOTSCALE_BENCH_BENCH_COMMON_H_

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/dag.h"
#include "graph/datasets.h"
#include "order/heuristic.h"
#include "order/ordering.h"
#include "pivot/count.h"
#include "pivot/count_on.h"
#include "pivot/pivotscale.h"
#include "sim/scaling_sim.h"
#include "sim/work_trace.h"
#include "util/cli.h"
#include "util/telemetry.h"
#include "util/timer.h"
#include "util/uint128.h"

namespace pivotscale {
namespace bench {

// Parses --scale / --datasets and materializes the requested suite.
inline std::vector<Dataset> LoadSuite(const ArgParser& args,
                                      double default_scale = 1.0) {
  const double scale = args.GetDouble("scale", default_scale);
  std::vector<std::string> names;
  if (args.Has("datasets")) {
    const std::string list = args.GetString("datasets", "");
    std::stringstream ss(list);
    std::string token;
    while (std::getline(ss, token, ','))
      if (!token.empty()) names.push_back(token);
  } else {
    names = DatasetNames();
  }
  std::vector<Dataset> suite;
  suite.reserve(names.size());
  for (const std::string& name : names)
    suite.push_back(MakeDataset(name, scale));
  return suite;
}

// Heuristic thresholds for the synthetic suite. The decision *rule* is the
// paper's (Section III-E); the numeric thresholds are recalibrated for the
// analog suite exactly as the paper calibrated them for the SNAP suite:
// the |V| > 1M gate scales to the analog sizes, and the a-ratio /
// common-fraction cutoffs shift because scaled-down RMAT hubs are
// intrinsically more assortative than their SNAP namesakes (see
// EXPERIMENTS.md, Table IV).
inline HeuristicConfig SuiteHeuristicConfig() {
  HeuristicConfig config;
  config.min_nodes = 15'000;
  config.a_ratio_threshold = 0.05;
  config.common_fraction_threshold = 0.30;
  return config;
}

// The ordering sweep used by Figures 5-8: core is the normalization
// baseline; the rest are this work's alternatives plus degree.
struct NamedSpec {
  std::string label;
  OrderingSpec spec;
};

inline std::vector<NamedSpec> OrderingSweep() {
  return {
      {"core", {OrderingKind::kCore}},
      {"approx(-0.5)", {OrderingKind::kApproxCore, -0.5}},
      {"approx(0.1)", {OrderingKind::kApproxCore, 0.1}},
      {"approx(50000)", {OrderingKind::kApproxCore, 50000}},
      {"kcore", {OrderingKind::kKCore}},
      {"centrality", {OrderingKind::kCentrality}},
      {"degree", {OrderingKind::kDegree}},
  };
}

// One ordering evaluated end-to-end on one graph: measured single-core
// phase times plus modeled 64-thread components, used by the Figure 6/7/8
// benches (the paper's numbers are 64-thread; on one core the phase
// balance shifts — see EXPERIMENTS.md).
struct OrderingRun {
  Ordering ordering;           // .rounds: parallel rounds, -1 = serial
  double order_seconds = 0;    // measured, single core
  double order_seconds64 = 0;  // modeled at 64 threads
  EdgeId max_out_degree = 0;
  double count_seconds = 0;    // measured, single core
  double count_seconds64 = 0;  // work-trace makespan at 64 threads
  double Total1() const { return order_seconds + count_seconds; }
  double Total64() const { return order_seconds64 + count_seconds64; }
};

// Per-round barrier latency charged by the 64-thread ordering model
// (a typical thread-team barrier latency at this core count).
inline constexpr double kOrderingBarrierSeconds = 5e-6;

// The 64-thread ordering model: the exact core peel (rounds < 0) stays
// sequential; every other ordering's parallel passes divide by 64 plus one
// barrier per round.
inline double OrderingSeconds64(double serial_seconds, int rounds) {
  return rounds < 0 ? serial_seconds
                    : serial_seconds / 64 + rounds * kOrderingBarrierSeconds;
}

// Computes the ordering, directionalizes, and runs a traced single-thread
// count; fills both the measured and the modeled-64 components.
// When `telemetry` is non-null, per-stage spans are recorded under the
// run's label ("<label>.ordering" / "<label>.counting") and op counters
// accumulate across runs, so a whole sweep lands in one run report.
inline OrderingRun EvaluateOrdering(const Graph& g, const NamedSpec& named,
                                    std::uint32_t k,
                                    TelemetryRegistry* telemetry = nullptr) {
  OrderingRun run;
  Timer order_timer;
  run.ordering = ComputeOrdering(g, named.spec, telemetry);
  run.order_seconds = order_timer.Seconds();
  run.order_seconds64 =
      OrderingSeconds64(run.order_seconds, run.ordering.rounds);

  const Graph dag = Directionalize(g, run.ordering.ranks, telemetry);
  run.max_out_degree = MaxOutDegree(dag);
  CountOptions options;
  options.k = k;
  options.num_threads = 1;
  options.telemetry = telemetry;
  WorkTrace trace;
  Timer count_timer;
  const CountResult result =
      CountCliquesOn(dag, options, SubgraphKind::kBitmap, &trace);
  run.count_seconds = count_timer.Seconds();

  if (telemetry != nullptr) {
    telemetry->RecordSpan(named.label + ".ordering", run.order_seconds);
    telemetry->RecordSpan(named.label + ".counting", run.count_seconds);
    telemetry->SetGauge(named.label + ".max_out_degree",
                        static_cast<double>(run.max_out_degree));
  }

  ScalingSimConfig sim;
  sim.num_threads = 64;
  sim.per_thread_footprint_bytes = result.workspace_bytes;
  run.count_seconds64 = SimulateScaling(trace, sim).makespan_seconds;
  return run;
}

// The PivotScale pipeline (pivot/pivotscale.h) with a traced count: the
// prefix (PrepareDag) picks the ordering under `config` and directionalizes,
// then a production-kernel count records a work trace for the 64-thread
// simulation.
struct TracedPipeline {
  PivotScaleResult result;
  WorkTrace trace;
};

inline TracedPipeline RunTracedPipeline(const Graph& g, std::uint32_t k,
                                        const HeuristicConfig& config,
                                        int num_threads = 0) {
  TracedPipeline run;
  PivotScaleResult& r = run.result;
  const PreparedDag prepared = PrepareDag(g, config, std::nullopt);
  r.decision = prepared.decision;
  r.ordering_name = prepared.ordering.name;
  r.max_out_degree = prepared.max_out_degree;
  r.heuristic_seconds = prepared.heuristic_seconds;
  r.ordering_seconds = prepared.ordering_seconds;
  r.directionalize_seconds = prepared.directionalize_seconds;
  CountOptions options;
  options.k = k;
  options.num_threads = num_threads;
  Timer count_timer;
  r.count =
      CountCliquesOn(prepared.dag, options, SubgraphKind::kBitmap, &run.trace);
  r.counting_seconds = count_timer.Seconds();
  r.total = r.count.total;
  r.total_seconds = r.heuristic_seconds + r.ordering_seconds +
                    r.directionalize_seconds + r.counting_seconds;
  return run;
}

// Writes the registry as a run-report JSON document when the binary was
// invoked with --telemetry-json=<path>, so every bench emits
// machine-readable telemetry alongside its table. Returns true if written.
inline bool EmitTelemetryIfRequested(const ArgParser& args,
                                     const TelemetryRegistry& registry) {
  if (!args.Has("telemetry-json")) return false;
  const std::string path = args.GetPath("telemetry-json", "");
  WriteRunReport(path, registry);
  std::cout << "telemetry written to " << path << "\n";
  return true;
}

// Formats a count or a time cell, using the paper's ">budget" marker style.
inline std::string TimeCell(double seconds, bool timed_out,
                            double budget_seconds) {
  if (timed_out) {
    std::ostringstream os;
    os << "> " << budget_seconds << "s";
    return os.str();
  }
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << seconds;
  return os.str();
}

}  // namespace bench
}  // namespace pivotscale

#endif  // PIVOTSCALE_BENCH_BENCH_COMMON_H_

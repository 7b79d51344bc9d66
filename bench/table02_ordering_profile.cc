// Table II: counting-phase profile of the degree ordering normalized to the
// core ordering.
//
// Hardware-counter substitution (DESIGN.md): instruction count -> recursion
// edge operations, function calls -> recursive call count, LLC MPKI -> miss
// rate of a set-associative LRU cache simulator replaying modeled subgraph
// accesses, IPC -> edge-ops per second. The paper's relationship to verify:
// degree ordering executes MORE operations but with FEWER cache misses.
#include <iostream>

#include "bench_common.h"
#include "graph/dag.h"
#include "order/core_order.h"
#include "order/degree_order.h"
#include "pivot/count.h"
#include "pivot/pivoter.h"
#include "pivot/subgraph_remap.h"
#include "sim/cache_sim.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

using namespace pivotscale;

namespace {

struct Profile {
  OpCounters ops;
  double miss_per_kilo = 0;  // cache-sim misses per 1000 modeled accesses
  double ops_per_second = 0;
};

// Counts with op stats for throughput + replays a root sample through the
// cache simulator for the locality proxy.
Profile ProfileCounting(const Graph& dag, std::uint32_t k,
                        NodeId sample_roots) {
  Profile profile;

  CountOptions options;
  options.k = k;
  options.collect_op_stats = true;
  Timer timer;
  const CountResult result = CountCliques(dag, options);
  profile.ops = result.ops;
  const double seconds = timer.Seconds();
  profile.ops_per_second =
      seconds > 0 ? static_cast<double>(result.ops.edge_ops) / seconds : 0;

  // Cache replay on a root sample: a per-core LLC slice (4 MiB, 16-way).
  CacheSim cache(std::size_t{4} << 20, 16, 64);
  const BinomialTable binom(
      static_cast<std::uint32_t>(dag.MaxDegree()) + 2);
  PivotCounter<RemapSubgraph, TraceStats<CacheSim>, SingleKPolicy> counter(
      dag, k, static_cast<std::uint32_t>(dag.MaxDegree()) + 1, &binom);
  counter.stats().sink = &cache;
  const NodeId n = std::min(dag.NumNodes(), sample_roots);
  for (NodeId v = 0; v < n; ++v) counter.ProcessRoot(v);
  profile.miss_per_kilo = cache.MissesPerKiloAccess();
  return profile;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto suite = bench::LoadSuite(args);
  const auto k = args.GetK(8);
  const auto sample =
      static_cast<NodeId>(args.GetInt("sample-roots", 4000));

  TablePrinter table(
      "Table II: degree-ordering counting profile normalized to core "
      "ordering (k=" +
          std::to_string(k) + ")",
      {"graph", "norm edge-ops", "norm calls", "norm miss/kacc",
       "norm ops/s"});

  std::vector<double> norm_ops, norm_calls, norm_miss, norm_ips;
  for (const Dataset& d : suite) {
    const Graph core_dag =
        Directionalize(d.graph, CoreOrdering(d.graph).ranks);
    const Graph degree_dag =
        Directionalize(d.graph, DegreeOrdering(d.graph).ranks);
    const Profile core = ProfileCounting(core_dag, k, sample);
    const Profile degree = ProfileCounting(degree_dag, k, sample);

    const double r_ops = static_cast<double>(degree.ops.edge_ops) /
                         static_cast<double>(core.ops.edge_ops);
    const double r_calls = static_cast<double>(degree.ops.calls) /
                           static_cast<double>(core.ops.calls);
    const double r_miss =
        core.miss_per_kilo > 0 ? degree.miss_per_kilo / core.miss_per_kilo
                               : 1.0;
    const double r_ips =
        core.ops_per_second > 0 ? degree.ops_per_second / core.ops_per_second
                                : 1.0;
    norm_ops.push_back(r_ops);
    norm_calls.push_back(r_calls);
    norm_miss.push_back(r_miss);
    norm_ips.push_back(r_ips);
    table.AddRow({d.name, TablePrinter::Cell(r_ops, 2),
                  TablePrinter::Cell(r_calls, 2),
                  TablePrinter::Cell(r_miss, 2),
                  TablePrinter::Cell(r_ips, 2)});
  }
  table.AddRow({"geometric mean", TablePrinter::Cell(GeoMean(norm_ops), 2),
                TablePrinter::Cell(GeoMean(norm_calls), 2),
                TablePrinter::Cell(GeoMean(norm_miss), 2),
                TablePrinter::Cell(GeoMean(norm_ips), 2)});
  table.Print();
  return 0;
}

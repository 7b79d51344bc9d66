// Full-featured command-line front end for the library — the binary a
// downstream user runs on their own graphs.
//
// Usage:
//   pivotscale_cli --graph path.el [--k 8] [--all-k] [--per-vertex]
//                  [--top 10]
//                  [--ordering heuristic|core|approx|kcore|centrality|degree]
//                  [--eps -0.5] [--structure remap|sparse|dense]
//                  [--threads N] [--stats] [--save-binary out.psg]
//                  [--telemetry-json out.json]
//
// --per-vertex prints the --top N most clique-active vertices (default 10)
// and, with --telemetry-json, records them as the "per_vertex.top_vertex_ids"
// / "per_vertex.top_counts" series. --telemetry-json writes the full run
// telemetry (per-phase spans, per-thread busy times, op counters) as one
// JSON document and prints the ASCII load-imbalance summary. Unknown flags
// are rejected. Without --graph a demo graph is generated (so the binary
// runs bare).
#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "pivotscale.h"
#include "util/cli.h"
#include "util/mem.h"
#include "util/table.h"
#include "util/telemetry.h"
#include "util/version.h"

using namespace pivotscale;

namespace {

OrderingSpec ParseOrdering(const std::string& name, double eps) {
  if (name == "core") return {OrderingKind::kCore};
  if (name == "approx") return {OrderingKind::kApproxCore, eps};
  if (name == "kcore") return {OrderingKind::kKCore};
  if (name == "centrality") return {OrderingKind::kCentrality, 0, 3};
  if (name == "degree") return {OrderingKind::kDegree};
  throw std::runtime_error("unknown --ordering: " + name);
}

SubgraphKind ParseStructure(const std::string& name) {
  if (name == "remap") return SubgraphKind::kRemap;
  if (name == "sparse") return SubgraphKind::kSparse;
  if (name == "dense") return SubgraphKind::kDense;
  throw std::runtime_error("unknown --structure: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    args.RejectUnknown({"graph", "k", "all-k", "per-vertex", "top",
                        "ordering", "eps", "structure", "threads", "stats",
                        "save-binary", "telemetry-json",
                        "heuristic-min-nodes", "version"});
    if (args.GetBool("version", false)) {
      std::cout << "pivotscale_cli " << VersionString() << "\n";
      return 0;
    }
    const std::string path = args.GetPath("graph", "");
    const std::string telemetry_path = args.GetPath("telemetry-json", "");
    const std::string save_path = args.GetPath("save-binary", "");

    Graph g;
    if (!path.empty()) {
      Timer load_timer;
      g = LoadGraph(path);
      std::cout << "loaded " << path << " in "
                << TablePrinter::Cell(load_timer.Seconds(), 2) << "s\n";
    } else {
      EdgeList edges = Rmat(12, 8.0, 1);
      PlantCliques(&edges, 4096, 8, 8, 16, 2);
      g = BuildGraph(std::move(edges));
      std::cout << "no --graph given; generated a demo graph\n";
    }
    std::cout << "graph: " << g.NumNodes() << " vertices, "
              << g.NumUndirectedEdges() << " edges, avg degree "
              << TablePrinter::Cell(g.AverageDegree(), 2) << "\n";

    if (!save_path.empty()) {
      WriteBinaryGraph(save_path, g);
      std::cout << "wrote binary graph to " << save_path << "\n";
    }

    PivotScaleOptions options;
    options.k = args.GetK(8);
    options.all_k = args.GetBool("all-k", false);
    options.count.per_vertex = args.GetBool("per-vertex", false);
    options.count.structure =
        ParseStructure(args.GetString("structure", "remap"));
    options.count.num_threads = args.GetThreads();
    options.count.collect_op_stats = args.GetBool("stats", false);
    options.heuristic.min_nodes =
        static_cast<NodeId>(args.GetInt("heuristic-min-nodes", 15'000));

    const std::string ordering = args.GetString("ordering", "heuristic");
    if (ordering != "heuristic")
      options.forced_ordering =
          ParseOrdering(ordering, args.GetDouble("eps", -0.5));

    TelemetryRegistry telemetry;
    if (!telemetry_path.empty()) options.telemetry = &telemetry;

    const PivotScaleResult result = CountKCliques(g, options);

    std::cout << "\nordering: " << result.ordering_name
              << " (max out-degree " << result.max_out_degree << ")\n";
    if (options.all_k) {
      TablePrinter table("clique counts by size", {"k", "count"});
      for (std::size_t s = 1; s < result.count.per_size.size(); ++s)
        if (result.count.per_size[s] != BigCount{})
          table.AddRow({TablePrinter::Cell(std::uint64_t{s}),
                        result.count.per_size[s].ToString()});
      table.Print();
    } else {
      std::cout << options.k << "-cliques: " << result.total.ToString()
                << "\n";
    }
    if (options.count.per_vertex) {
      // Top-N vertices by k-clique participation (ties broken by id).
      const auto& pv = result.count.per_vertex;
      std::vector<NodeId> order;
      for (NodeId v = 0; v < g.NumNodes(); ++v)
        if (pv[v] != BigCount{}) order.push_back(v);
      const std::size_t top = std::min<std::size_t>(
          static_cast<std::size_t>(std::max<std::int64_t>(
              args.GetInt("top", 10), 1)),
          order.size());
      std::partial_sort(order.begin(), order.begin() + top, order.end(),
                        [&](NodeId a, NodeId b) {
                          if (pv[a] != pv[b]) return pv[b] < pv[a];
                          return a < b;
                        });
      TablePrinter table("top " + std::to_string(top) +
                             " clique-active vertices",
                         {"rank", "vertex", std::to_string(options.k) +
                                                "-cliques"});
      for (std::size_t t = 0; t < top; ++t)
        table.AddRow({TablePrinter::Cell(std::uint64_t{t + 1}),
                      TablePrinter::Cell(std::uint64_t{order[t]}),
                      pv[order[t]].ToString()});
      table.Print();
      if (!telemetry_path.empty()) {
        // Counts ride as doubles (exact below 2^53; the JSON series slot
        // is double-typed) so per-vertex results land in the run report.
        std::vector<double> ids(top), counts(top);
        for (std::size_t t = 0; t < top; ++t) {
          ids[t] = static_cast<double>(order[t]);
          counts[t] = pv[order[t]].AsDouble();
        }
        telemetry.SetSeries("per_vertex.top_vertex_ids", std::move(ids));
        telemetry.SetSeries("per_vertex.top_counts", std::move(counts));
      }
    }
    if (options.count.collect_op_stats) {
      std::cout << "recursion: " << result.count.ops.calls << " calls, "
                << result.count.ops.edge_ops << " edge ops, "
                << result.count.ops.induces << " inductions\n";
    }
    std::printf(
        "phases: heuristic %.3fs | ordering %.3fs | directionalize %.3fs | "
        "counting %.3fs | total %.3fs\n",
        result.heuristic_seconds, result.ordering_seconds,
        result.directionalize_seconds, result.counting_seconds,
        result.total_seconds);
    std::cout << "peak RSS: " << HumanBytes(PeakRssBytes()) << "\n";
    if (!telemetry_path.empty()) {
      WriteRunReport(telemetry_path, telemetry);
      std::cout << "telemetry written to " << telemetry_path << "\n";
      const std::string imbalance = LoadImbalanceSummary(telemetry);
      if (!imbalance.empty()) std::cout << imbalance;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

// Full-featured command-line front end for the library — the binary a
// downstream user runs on their own graphs.
//
// Usage:
//   pivotscale_cli --graph path.el [--k 8] [--all-k] [--per-vertex]
//                  [--top 10]
//                  [--ordering heuristic|core|approx|kcore|centrality|degree]
//                  [--eps -0.5] [--threads N] [--stats]
//                  [--save-binary out.psg] [--heuristic-min-nodes N]
//                  [--telemetry-json out.json]
//
// --threads N caps the whole run — load, ordering, directionalize and
// counting — at N threads (the exec layer's thread capacity), as in
// pivotscale_prep; without it the default capacity applies
// (OMP_NUM_THREADS, else every CPU).
// --per-vertex prints the --top N most clique-active vertices (default 10)
// and, with --telemetry-json, records them as the "per_vertex.top_vertex_ids"
// / "per_vertex.top_counts" series. --telemetry-json writes the full run
// telemetry (per-phase spans, per-thread busy times, op counters) as one
// JSON document and prints the ASCII load-imbalance summary. Unknown flags
// are rejected. Without --graph a demo graph is generated (so the binary
// runs bare).
#include <iostream>
#include <limits>
#include <stdexcept>
#include <vector>

#include "exec/executor.h"
#include "pivotscale.h"
#include "util/cli.h"
#include "util/mem.h"
#include "util/table.h"
#include "util/telemetry.h"
#include "util/version.h"

using namespace pivotscale;

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    args.RejectUnknown({"graph", "k", "all-k", "per-vertex", "top",
                        "ordering", "eps", "threads", "stats",
                        "save-binary", "telemetry-json",
                        "heuristic-min-nodes", "version"});
    if (args.GetBool("version", false)) {
      std::cout << "pivotscale_cli " << VersionString() << "\n";
      return 0;
    }
    // Every flag is read (and a bad value rejected) before the graph load.
    if (args.Has("threads")) SetThreadCapacity(args.GetThreads());
    const std::string path = args.GetPath("graph", "");
    const std::string telemetry_path = args.GetPath("telemetry-json", "");
    const std::string save_path = args.GetPath("save-binary", "");
    PivotScaleOptions options;
    options.k = args.GetK(8);
    if (args.GetBool("all-k", false)) options.count.mode = CountMode::kAllK;
    options.count.per_vertex = args.GetBool("per-vertex", false);
    options.count.collect_op_stats = args.GetBool("stats", false);
    options.heuristic.min_nodes = static_cast<NodeId>(args.GetIntInRange(
        "heuristic-min-nodes", 15'000, 0, std::numeric_limits<NodeId>::max()));
    const std::string ordering = args.GetString("ordering", "heuristic");
    const double eps = args.GetDouble("eps", -0.5);
    if (ordering != "heuristic")
      options.forced_ordering = ParseOrderingSpec(ordering, eps);
    const auto top_n = static_cast<std::size_t>(args.GetIntInRange(
        "top", 10, 1, std::numeric_limits<NodeId>::max()));

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

    TelemetryRegistry telemetry;
    if (!telemetry_path.empty()) options.telemetry = &telemetry;

    const PivotScaleResult result = CountKCliques(g, options);

    std::cout << "\nordering: " << result.ordering_name
              << " (max out-degree " << result.max_out_degree << ")\n";
    if (options.count.mode == CountMode::kAllK) {
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
      const std::vector<VertexCount> top =
          RankVerticesByCount(result.count.per_vertex, top_n);
      TablePrinter table("top " + std::to_string(top.size()) +
                             " clique-active vertices",
                         {"rank", "vertex", std::to_string(options.k) +
                                                "-cliques"});
      for (std::size_t t = 0; t < top.size(); ++t)
        table.AddRow({TablePrinter::Cell(std::uint64_t{t + 1}),
                      TablePrinter::Cell(std::uint64_t{top[t].vertex}),
                      top[t].count.ToString()});
      table.Print();
      if (!telemetry_path.empty()) {
        // Counts ride as doubles (exact below 2^53; the JSON series slot
        // is double-typed) so per-vertex results land in the run report.
        std::vector<double> ids, counts;
        for (const VertexCount& vc : top) {
          ids.push_back(static_cast<double>(vc.vertex));
          counts.push_back(vc.count.AsDouble());
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

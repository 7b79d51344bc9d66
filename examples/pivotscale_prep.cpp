// Builds a preprocessed .psx store artifact from an edge list or .psg
// graph, so pivotscale_served can answer clique queries without re-running
// the heuristic / ordering / directionalize phases.
//
// Usage:
//   pivotscale_prep --graph in.el --out graph.psx
//                   [--ordering heuristic|core|approx|kcore|centrality|degree]
//                   [--eps -0.5] [--heuristic-min-nodes N] [--threads N]
//                   [--skip-degeneracy] [--telemetry-json out.json]
//
// Without --graph a demo graph is generated (the CI loop executes every
// example bare). See docs/serving.md for the artifact layout.
#include <iostream>
#include <limits>
#include <stdexcept>

#include "exec/thread_budget.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "store/artifact.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/telemetry.h"
#include "util/timer.h"
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

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    args.RejectUnknown({"graph", "out", "ordering", "eps",
                        "heuristic-min-nodes", "skip-degeneracy",
                        "threads", "telemetry-json", "version"});
    if (args.GetBool("version", false)) {
      std::cout << "pivotscale_prep " << VersionString() << "\n";
      return 0;
    }
    // The build pipeline's parallel phases take their teams from the
    // shared budget, so capping the budget is the whole-binary --threads.
    if (args.Has("threads"))
      ThreadBudget::Global().SetCapacity(args.GetThreads());
    const std::string path = args.GetPath("graph", "");
    const std::string telemetry_path = args.GetPath("telemetry-json", "");
    const std::string out = args.GetPath("out", "graph.psx");

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
              << g.NumUndirectedEdges() << " edges\n";

    ArtifactBuildOptions options;
    options.compute_degeneracy = !args.GetBool("skip-degeneracy", false);
    options.heuristic.min_nodes = static_cast<NodeId>(args.GetIntInRange(
        "heuristic-min-nodes", 15'000, 0, std::numeric_limits<NodeId>::max()));
    const std::string ordering = args.GetString("ordering", "heuristic");
    if (ordering != "heuristic")
      options.forced_ordering =
          ParseOrdering(ordering, args.GetDouble("eps", -0.5));

    TelemetryRegistry telemetry;
    if (!telemetry_path.empty()) options.telemetry = &telemetry;

    Timer build_timer;
    const GraphArtifact artifact = BuildArtifact(g, options);
    const double build_seconds = build_timer.Seconds();

    Timer write_timer;
    WriteArtifact(out, artifact);
    const double write_seconds = write_timer.Seconds();

    TablePrinter table("artifact " + out, {"field", "value"});
    table.AddRow({"ordering", artifact.ordering_name});
    table.AddRow({"max out-degree",
                  TablePrinter::Cell(std::uint64_t{artifact.max_out_degree})});
    table.AddRow({"degeneracy",
                  options.compute_degeneracy
                      ? TablePrinter::Cell(std::uint64_t{artifact.degeneracy})
                      : std::string("(skipped)")});
    table.AddRow({"heap bytes",
                  TablePrinter::Cell(std::uint64_t{artifact.HeapBytes()})});
    table.AddRow({"build seconds", TablePrinter::Cell(build_seconds, 3)});
    table.AddRow({"write seconds", TablePrinter::Cell(write_seconds, 3)});
    table.Print();

    if (!telemetry_path.empty()) {
      WriteRunReport(telemetry_path, telemetry);
      std::cout << "telemetry written to " << telemetry_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

// Quickstart: count k-cliques in a graph with the full PivotScale pipeline.
//
// Usage:
//   quickstart [--graph path.el] [--k 8]
//
// Without --graph, a small synthetic social network is generated so the
// example runs out of the box.
#include <cstdio>
#include <iostream>

#include "pivotscale.h"
#include "util/cli.h"

using namespace pivotscale;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::uint32_t k = args.GetK(8);
  const std::string path = args.GetString("graph", "");

  Graph g;
  if (!path.empty()) {
    g = LoadGraph(path);
    std::cout << "Loaded " << path << "\n";
  } else {
    // A community-structured graph with a few thousand vertices.
    EdgeList edges = CommunityModel(/*n=*/4000, /*communities=*/900,
                                    /*min_size=*/3, /*max_size=*/9,
                                    /*intra_p=*/0.9, /*seed=*/42);
    PlantCliques(&edges, 4000, 5, 10, 14, 43);
    g = BuildGraph(std::move(edges));
    std::cout << "Generated a synthetic social network\n";
  }
  std::cout << "  vertices: " << g.NumNodes()
            << "  edges: " << g.NumUndirectedEdges()
            << "  avg degree: " << g.AverageDegree() << "\n";

  // The one-call pipeline: heuristic ordering selection, parallel ordering,
  // directionalization, and pivot-based counting.
  PivotScaleOptions options;
  options.k = k;
  // The heuristic's size gate is tuned for million-vertex graphs; drop it
  // so the demo exercises the full decision logic.
  options.heuristic.min_nodes = 1000;
  const PivotScaleResult result = CountKCliques(g, options);

  std::cout << "\n" << k << "-cliques: " << result.total.ToString() << "\n";
  std::cout << "ordering used: " << result.ordering_name
            << " (max out-degree " << result.max_out_degree << ")\n";
  std::printf(
      "phases: heuristic %.4fs | ordering %.4fs | directionalize %.4fs | "
      "counting %.4fs | total %.4fs\n",
      result.heuristic_seconds, result.ordering_seconds,
      result.directionalize_seconds, result.counting_seconds,
      result.total_seconds);
  return 0;
}

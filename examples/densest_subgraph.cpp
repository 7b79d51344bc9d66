// k-clique densest subgraph discovery — the application the paper's
// conclusion points per-vertex counts at (and one of the densest-subgraph
// use cases its introduction cites).
//
// Peels the graph by per-vertex k-clique counts and reports the densest
// prefix, then contrasts k-clique density with plain edge density: on a
// social-style graph the two disagree, which is exactly why clique-based
// density is used for community cores.
//
// Usage: densest_subgraph [--graph path.el] [--k 4] [--peel 0.1]
#include <iostream>

#include "pivotscale.h"
#include "util/cli.h"
#include "util/table.h"

using namespace pivotscale;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto k = args.GetK(4);
  const std::string path = args.GetString("graph", "");

  Graph g;
  if (!path.empty()) {
    g = LoadGraph(path);
  } else {
    // Sparse social noise with one strong community and a planted core.
    EdgeList edges = GnM(5000, 12000, 31);
    EdgeList comm = CommunityModel(5000, 400, 3, 8, 0.8, 32);
    edges.insert(edges.end(), comm.begin(), comm.end());
    PlantCliques(&edges, 5000, 1, 14, 14, 33);
    g = BuildGraph(std::move(edges));
    std::cout << "generated a social graph with a planted 14-clique core\n";
  }
  std::cout << "graph: " << g.NumNodes() << " vertices, "
            << g.NumUndirectedEdges() << " edges\n\n";

  DensestSubgraphConfig config;
  config.peel_fraction = args.GetDouble("peel", 0.1);
  const DensestSubgraphResult result =
      KCliqueDensestSubgraph(g, k, config);

  std::cout << k << "-clique densest subgraph: " << result.vertices.size()
            << " vertices, " << result.cliques.ToString() << " " << k
            << "-cliques, density "
            << TablePrinter::Cell(result.density, 2) << " cliques/vertex ("
            << result.rounds << " peel rounds, "
            << TablePrinter::Cell(result.seconds, 2) << "s)\n";

  // Contrast with the whole graph's averages.
  const BigCount total = CountKCliquesSimple(g, k);
  std::cout << "whole graph: "
            << TablePrinter::Cell(
                   total.AsDouble() / static_cast<double>(g.NumNodes()), 2)
            << " cliques/vertex, "
            << TablePrinter::Cell(2.0 * g.AverageDegree(), 2)
            << " edge-endpoints/vertex\n";

  // Edge density of the found core (cliques concentrate much harder than
  // edges do).
  const InducedResult core = InduceSubgraph(g, result.vertices);
  if (core.graph.NumNodes() > 0) {
    std::cout << "core edge density: "
              << TablePrinter::Cell(
                     static_cast<double>(
                         core.graph.NumUndirectedEdges()) /
                         core.graph.NumNodes(),
                     2)
              << " edges/vertex vs whole-graph "
              << TablePrinter::Cell(g.AverageDegree(), 2) << "\n";
  }
  return 0;
}

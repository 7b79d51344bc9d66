// Ordering explorer: run every ordering on a graph and report quality,
// time, resulting counting time, and what the heuristic would pick — a
// hands-on tour of the paper's Section III tradeoffs for your own graph.
//
// Usage: ordering_explorer [--graph path.el] [--k 8] [--eps -0.5]
#include <iostream>

#include "pivotscale.h"
#include "util/cli.h"
#include "util/table.h"

using namespace pivotscale;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto k = args.GetK(8);
  const double eps = args.GetDouble("eps", -0.5);
  const std::string path = args.GetString("graph", "");

  Graph g;
  if (!path.empty()) {
    g = LoadGraph(path);
  } else {
    EdgeList edges = Rmat(13, 8.0, 21);
    PlantCliques(&edges, 4096, 12, 8, 18, 22);
    g = BuildGraph(std::move(edges));
    std::cout << "Generated an RMAT social graph with planted cliques\n";
  }
  std::cout << "graph: " << g.NumNodes() << " vertices, "
            << g.NumUndirectedEdges() << " edges, degeneracy "
            << Degeneracy(g) << "\n\n";

  const std::vector<OrderingSpec> specs = {
      {OrderingKind::kCore},
      {OrderingKind::kApproxCore, eps},
      {OrderingKind::kApproxCore, 0.1},
      {OrderingKind::kKCore},
      {OrderingKind::kCentrality},
      {OrderingKind::kDegree},
  };

  TablePrinter table("ordering tradeoffs (k=" + std::to_string(k) + ")",
                     {"ordering", "order (s)", "max out-deg", "count (s)",
                      "total (s)", "k-cliques"});
  for (const OrderingSpec& spec : specs) {
    Timer order_timer;
    const Ordering ordering = ComputeOrdering(g, spec);
    const double order_seconds = order_timer.Seconds();

    Timer count_timer;
    const Graph dag = Directionalize(g, ordering.ranks);
    CountOptions options;
    options.k = k;
    const CountResult result = CountCliques(dag, options);
    const double count_seconds = count_timer.Seconds();

    table.AddRow({ordering.name, TablePrinter::Cell(order_seconds, 4),
                  TablePrinter::Cell(std::uint64_t{MaxOutDegree(dag)}),
                  TablePrinter::Cell(count_seconds, 4),
                  TablePrinter::Cell(order_seconds + count_seconds, 4),
                  result.total.ToString()});
  }
  table.Print();

  HeuristicConfig config;
  config.min_nodes = g.NumNodes() / 2;  // let the probes decide
  const HeuristicDecision d = SelectOrdering(g, config);
  std::cout << "\nheuristic: a=" << d.a << " a/|V|="
            << TablePrinter::Cell(d.a_ratio, 5)
            << " common=" << TablePrinter::Cell(d.common_fraction, 2)
            << " -> "
            << (d.use_core_approx ? "core approximation" : "degree ordering")
            << "\n";
  return 0;
}

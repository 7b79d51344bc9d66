#include "analysis/densest.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/dag.h"
#include "graph/transform.h"
#include "order/core_order.h"
#include "pivot/count.h"
#include "util/timer.h"

namespace pivotscale {

DensestSubgraphResult KCliqueDensestSubgraph(
    const Graph& g, std::uint32_t k, const DensestSubgraphConfig& config) {
  if (k < 2)
    throw std::invalid_argument("KCliqueDensestSubgraph: k must be >= 2");
  if (config.peel_fraction <= 0 || config.peel_fraction >= 1)
    throw std::invalid_argument(
        "KCliqueDensestSubgraph: peel_fraction out of (0, 1)");

  Timer timer;
  DensestSubgraphResult best;

  // Current subgraph, tracked as original-id members.
  std::vector<NodeId> members(g.NumNodes());
  std::iota(members.begin(), members.end(), NodeId{0});
  Graph current = g;  // renumbered copy; ids map through `members`

  while (current.NumNodes() > 0) {
    ++best.rounds;
    // Exact per-vertex k-clique counts on the current subgraph.
    const Graph dag = Directionalize(current, CoreOrdering(current).ranks);
    CountOptions options;
    options.k = k;
    options.per_vertex = true;
    const CountResult counts = CountCliques(dag, options);

    const double density =
        counts.total.AsDouble() / static_cast<double>(current.NumNodes());
    if (density > best.density ||
        (best.vertices.empty() && counts.total > BigCount{})) {
      best.density = density;
      best.cliques = counts.total;
      best.vertices = members;
    }
    if (counts.total == BigCount{}) break;  // no k-cliques left anywhere

    // Peel the lowest-count fraction (at least one vertex).
    const NodeId n = current.NumNodes();
    std::vector<NodeId> by_count(n);
    std::iota(by_count.begin(), by_count.end(), NodeId{0});
    std::sort(by_count.begin(), by_count.end(), [&](NodeId a, NodeId b) {
      return counts.per_vertex[a] < counts.per_vertex[b];
    });
    const NodeId keep_from = std::max<NodeId>(
        1, static_cast<NodeId>(config.peel_fraction * n));
    std::vector<NodeId> survivors(by_count.begin() + keep_from,
                                  by_count.end());
    std::sort(survivors.begin(), survivors.end());

    const InducedResult induced = InduceSubgraph(current, survivors);
    std::vector<NodeId> new_members(induced.original_ids.size());
    for (std::size_t i = 0; i < induced.original_ids.size(); ++i)
      new_members[i] = members[induced.original_ids[i]];
    members = std::move(new_members);
    current = induced.graph;
  }

  best.seconds = timer.Seconds();
  return best;
}

}  // namespace pivotscale

#include "order/degree_order.h"

#include <utility>
#include <vector>

namespace pivotscale {

Ordering DegreeOrdering(const Graph& g) {
  const NodeId n = g.NumNodes();
  // next[d + 1] counts the vertices of degree d; its prefix sum makes
  // next[d] the first rank of degree d.
  std::vector<NodeId> next(g.MaxDegree() + 2, 0);
  for (NodeId u = 0; u < n; ++u) ++next[g.Degree(u) + 1];
  for (std::size_t d = 1; d < next.size(); ++d) next[d] += next[d - 1];
  // Ascending ids take the ranks of their degree in turn, so ties break by
  // id exactly as RanksFromKeys does.
  std::vector<NodeId> ranks(n);
  for (NodeId u = 0; u < n; ++u) ranks[u] = next[g.Degree(u)]++;
  return {"degree", std::move(ranks), 1};
}

}  // namespace pivotscale

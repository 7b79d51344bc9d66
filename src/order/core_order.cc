#include "order/core_order.h"

#include <vector>

namespace pivotscale {

namespace {

// Batagelj-Zaversnik smallest-last peel. Fills ranks with peel positions
// and returns the degeneracy (max degree at pop time == max coreness).
//
// Invariants: `order` stays sorted by current degree; `bin[d]` is the first
// position whose vertex has current degree >= d. Popping the vertex at
// position i freezes its degree (its coreness); neighbors with strictly
// larger current degree are swapped to the front of their bucket and
// decremented. Neighbors of equal degree are left alone — their coreness is
// already determined — which is what keeps every bucket boundary valid.
EdgeId PeelSmallestLast(const Graph& g, std::vector<NodeId>* ranks) {
  const NodeId n = g.NumNodes();
  ranks->assign(n, 0);
  if (n == 0) return 0;

  std::vector<EdgeId> degree(n);
  EdgeId max_degree = 0;
  for (NodeId u = 0; u < n; ++u) {
    degree[u] = g.Degree(u);
    max_degree = std::max(max_degree, degree[u]);
  }

  // bin[d] = first position of degree-d vertices in `order`.
  std::vector<NodeId> bin(max_degree + 2, 0);
  for (NodeId u = 0; u < n; ++u) ++bin[degree[u] + 1];
  for (EdgeId d = 1; d <= max_degree + 1; ++d) bin[d] += bin[d - 1];

  std::vector<NodeId> order(n);
  std::vector<NodeId> pos(n);
  {
    std::vector<NodeId> next(bin.begin(), bin.end() - 1);
    for (NodeId u = 0; u < n; ++u) {
      pos[u] = next[degree[u]]++;
      order[pos[u]] = u;
    }
  }

  EdgeId degeneracy = 0;
  for (NodeId i = 0; i < n; ++i) {
    const NodeId v = order[i];
    (*ranks)[v] = i;
    degeneracy = std::max(degeneracy, degree[v]);
    for (NodeId u : g.Neighbors(v)) {
      if (degree[u] <= degree[v]) continue;  // processed or same-coreness
      const EdgeId du = degree[u];
      const NodeId pu = pos[u];
      const NodeId pw = bin[du];  // front of u's bucket
      const NodeId w = order[pw];
      if (u != w) {
        order[pu] = w;
        pos[w] = pu;
        order[pw] = u;
        pos[u] = pw;
      }
      ++bin[du];
      --degree[u];
    }
  }
  return degeneracy;
}

}  // namespace

Ordering CoreOrdering(const Graph& g) {
  std::vector<NodeId> ranks;
  PeelSmallestLast(g, &ranks);
  return {"core", std::move(ranks), -1};  // serial peel
}

EdgeId Degeneracy(const Graph& g) {
  std::vector<NodeId> ranks;
  return PeelSmallestLast(g, &ranks);
}

}  // namespace pivotscale

#include "graph/transform.h"

#include <algorithm>
#include <vector>

#include "graph/builder.h"
#include "order/kcore_order.h"

namespace pivotscale {

InducedResult InduceSubgraph(const Graph& g,
                             std::span<const NodeId> vertices) {
  constexpr NodeId kAbsent = ~NodeId{0};
  std::vector<NodeId> new_id(g.NumNodes(), kAbsent);
  InducedResult result;
  for (NodeId v : vertices) {
    if (new_id[v] != kAbsent) continue;  // duplicate
    new_id[v] = static_cast<NodeId>(result.original_ids.size());
    result.original_ids.push_back(v);
  }

  EdgeList edges;
  for (NodeId old_u : result.original_ids) {
    for (NodeId old_v : g.Neighbors(old_u)) {
      if (new_id[old_v] == kAbsent) continue;
      if (old_u < old_v)  // emit each undirected edge once
        edges.emplace_back(new_id[old_u], new_id[old_v]);
    }
  }
  result.graph = BuildGraph(
      std::move(edges), static_cast<NodeId>(result.original_ids.size()));
  return result;
}

InducedResult ExtractKCore(const Graph& g, EdgeId k) {
  const std::vector<EdgeId> coreness = CoreDecomposition(g);
  std::vector<NodeId> survivors;
  for (NodeId v = 0; v < g.NumNodes(); ++v)
    if (coreness[v] >= k) survivors.push_back(v);
  return InduceSubgraph(g, survivors);
}

std::vector<NodeId> ConnectedComponents(const Graph& g) {
  constexpr NodeId kUnvisited = ~NodeId{0};
  const NodeId n = g.NumNodes();
  std::vector<NodeId> component(n, kUnvisited);
  std::vector<NodeId> stack;
  NodeId next_component = 0;
  for (NodeId start = 0; start < n; ++start) {
    if (component[start] != kUnvisited) continue;
    component[start] = next_component;
    stack.push_back(start);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : g.Neighbors(u)) {
        if (component[v] == kUnvisited) {
          component[v] = next_component;
          stack.push_back(v);
        }
      }
    }
    ++next_component;
  }
  return component;
}

InducedResult LargestConnectedComponent(const Graph& g) {
  const std::vector<NodeId> component = ConnectedComponents(g);
  NodeId num_components = 0;
  for (NodeId c : component)
    num_components = std::max(num_components, static_cast<NodeId>(c + 1));
  std::vector<NodeId> sizes(num_components, 0);
  for (NodeId c : component) ++sizes[c];
  const NodeId best = static_cast<NodeId>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());

  std::vector<NodeId> members;
  for (NodeId v = 0; v < g.NumNodes(); ++v)
    if (component[v] == best) members.push_back(v);
  return InduceSubgraph(g, members);
}

Graph DisjointUnion(const Graph& a, const Graph& b) {
  EdgeList edges;
  const NodeId offset = a.NumNodes();
  for (NodeId u = 0; u < a.NumNodes(); ++u)
    for (NodeId v : a.Neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  for (NodeId u = 0; u < b.NumNodes(); ++u)
    for (NodeId v : b.Neighbors(u))
      if (u < v) edges.emplace_back(u + offset, v + offset);
  return BuildGraph(std::move(edges), offset + b.NumNodes());
}

}  // namespace pivotscale

// Immutable CSR (compressed sparse row) graph.
//
// The whole pipeline operates on this one representation: undirected inputs
// store each edge in both directions; directionalized DAGs store each edge
// once, from lower to higher ordering rank. Adjacency lists are sorted by
// vertex id, which the counting kernels rely on for merge-style
// intersections.
#ifndef PIVOTSCALE_GRAPH_GRAPH_H_
#define PIVOTSCALE_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace pivotscale {

// Vertex identifier. 32 bits covers every graph this repository targets
// (the paper's largest input has 65.6 M vertices).
using NodeId = std::uint32_t;

// Edge index into the CSR neighbor array.
using EdgeId = std::uint64_t;

// An edge as read from input or produced by a generator.
using Edge = std::pair<NodeId, NodeId>;
using EdgeList = std::vector<Edge>;

class Graph {
 public:
  Graph() = default;

  // Takes ownership of prebuilt CSR arrays. offsets.size() must equal
  // num_nodes + 1 and offsets.back() must equal neighbors.size().
  // `undirected` records whether the CSR stores both directions of each
  // edge (affects NumUndirectedEdges and sanity checks only).
  Graph(std::vector<EdgeId> offsets, std::vector<NodeId> neighbors,
        bool undirected);

  NodeId NumNodes() const { return num_nodes_; }

  // Number of directed adjacency entries (for an undirected graph this is
  // 2x the edge count).
  EdgeId NumDirectedEdges() const { return neighbors_.size(); }

  // Number of undirected edges. Only meaningful when undirected() is true.
  EdgeId NumUndirectedEdges() const { return neighbors_.size() / 2; }

  bool undirected() const { return undirected_; }

  EdgeId Degree(NodeId u) const {
    DCHECK_LT(u, num_nodes_);
    return offsets_[u + 1] - offsets_[u];
  }

  // Out-neighbors of u, sorted ascending by id.
  std::span<const NodeId> Neighbors(NodeId u) const {
    DCHECK_LT(u, num_nodes_);
    return {neighbors_.data() + offsets_[u],
            static_cast<std::size_t>(offsets_[u + 1] - offsets_[u])};
  }

  // Binary search for edge (u, v). O(log Degree(u)).
  bool HasEdge(NodeId u, NodeId v) const;

  // Average degree: directed entries / nodes (equals the paper's delta for
  // undirected graphs since each edge contributes twice over 2x... the paper
  // reports |E|/|V| with |E| counted once; this matches that convention).
  double AverageDegree() const {
    if (num_nodes_ == 0) return 0;
    const double edges = undirected_
                             ? static_cast<double>(NumUndirectedEdges())
                             : static_cast<double>(NumDirectedEdges());
    return edges / static_cast<double>(num_nodes_);
  }

  // Largest degree over all vertices (0 for the empty graph).
  EdgeId MaxDegree() const;

  // Heap bytes held by the CSR arrays.
  std::size_t HeapBytes() const {
    return offsets_.capacity() * sizeof(EdgeId) +
           neighbors_.capacity() * sizeof(NodeId);
  }

  const std::vector<EdgeId>& offsets() const { return offsets_; }
  const std::vector<NodeId>& neighbor_array() const { return neighbors_; }

 private:
  NodeId num_nodes_ = 0;
  bool undirected_ = true;
  std::vector<EdgeId> offsets_;    // size num_nodes_ + 1
  std::vector<NodeId> neighbors_;  // size offsets_.back()
};

// True iff `ranks` holds each value in [0, n) exactly once.
inline bool IsPermutation(std::span<const NodeId> ranks) {
  std::vector<bool> seen(ranks.size(), false);
  for (NodeId r : ranks) {
    if (r >= ranks.size() || seen[r]) return false;
    seen[r] = true;
  }
  return true;
}

}  // namespace pivotscale

#endif  // PIVOTSCALE_GRAPH_GRAPH_H_

// Edge-list to CSR construction.
//
// All inputs (generators, file readers) produce edge lists; the builder
// normalizes them the way the paper's evaluation prescribes: symmetrized to
// undirected, self-loops removed, duplicate edges removed, adjacency sorted.
// Counting kernels assume these invariants.
//
// The build is a parallel counting sort on the exec layer, O(m) apart from
// sorting each row: entries are counted per (edge chunk, vertex bucket),
// scattered into bucket order through cursors each chunk owns (no atomics),
// then counting-sorted into rows that are sorted, de-duplicated and packed
// in place.
#ifndef PIVOTSCALE_GRAPH_BUILDER_H_
#define PIVOTSCALE_GRAPH_BUILDER_H_

#include "graph/graph.h"

namespace pivotscale {

// Builds the undirected simple CSR graph of `edges` over `num_nodes`
// vertices; 0 means "largest endpoint of a non-loop edge + 1". Throws
// std::invalid_argument when a non-loop edge has an endpoint >= num_nodes,
// or when the inferred vertex count exceeds the NodeId range (an endpoint
// of 2^32 - 1). The list is taken by value and released during the build.
Graph BuildGraph(EdgeList edges, NodeId num_nodes = 0);

// BuildGraph(edges, n), under the name the benchmark driver calls.
Graph BuildUndirected(EdgeList edges, NodeId n);

}  // namespace pivotscale

#endif  // PIVOTSCALE_GRAPH_BUILDER_H_

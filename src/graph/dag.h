// Directionalization: undirected graph -> DAG under a total order.
//
// Given a rank permutation w, the edge {u, v} is kept as u -> v iff
// w[u] < w[v] (edges point from lower to higher rank), so every clique has
// exactly one canonical root — the member with the lowest rank. The maximum
// out-degree of the resulting DAG is the paper's measure of ordering
// quality (Section III).
#ifndef PIVOTSCALE_GRAPH_DAG_H_
#define PIVOTSCALE_GRAPH_DAG_H_

#include <span>

#include "graph/graph.h"

namespace pivotscale {

class TelemetryRegistry;

// Builds the DAG induced by `ranks` over the undirected graph `g`.
// `ranks` must be a permutation of [0, n) (checked); the result stores each
// undirected edge exactly once. Parallelized over vertices. When
// `telemetry` is non-null, records the "directionalize.max_out_degree" and
// "directionalize.edges" gauges plus the "directionalize.edge_flips"
// counter (edges whose kept direction u -> v runs against the vertex-id
// order, i.e. u > v — how far the ordering departs from the identity).
Graph Directionalize(const Graph& g, std::span<const NodeId> ranks,
                     TelemetryRegistry* telemetry = nullptr);

// Largest out-degree of a directionalized graph — the ordering-quality
// metric used throughout the evaluation.
EdgeId MaxOutDegree(const Graph& dag);

}  // namespace pivotscale

#endif  // PIVOTSCALE_GRAPH_DAG_H_

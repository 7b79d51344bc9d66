// k-clique densest subgraph by iterative peeling — the flagship use of the
// per-vertex counting mode the paper's conclusion highlights.
//
// The k-clique densest subgraph maximizes (#k-cliques in S) / |S|. The
// classic peeling scheme (Tsourakakis, WWW'15): repeatedly remove the
// vertex (or a batch of vertices) with the fewest incident k-cliques and
// keep the densest prefix seen; this gives a 1/k approximation. Each round
// recomputes per-vertex counts on the shrinking graph with the exact
// pivoting kernel.
#ifndef PIVOTSCALE_ANALYSIS_DENSEST_H_
#define PIVOTSCALE_ANALYSIS_DENSEST_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/uint128.h"

namespace pivotscale {

struct DensestSubgraphConfig {
  // Fraction of the lowest-count vertices removed per round; batching
  // trades approximation tightness for rounds (1 vertex/round is the
  // textbook scheme, far too slow for counting-based peeling).
  double peel_fraction = 0.1;
};

struct DensestSubgraphResult {
  std::vector<NodeId> vertices;  // members of the best subgraph found
  BigCount cliques{};            // k-cliques inside it
  double density = 0;            // cliques / |vertices|
  int rounds = 0;
  double seconds = 0;
};

// Approximates the k-clique densest subgraph of g. k >= 2.
DensestSubgraphResult KCliqueDensestSubgraph(
    const Graph& g, std::uint32_t k,
    const DensestSubgraphConfig& config = {});

}  // namespace pivotscale

#endif  // PIVOTSCALE_ANALYSIS_DENSEST_H_

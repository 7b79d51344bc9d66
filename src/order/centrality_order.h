// Eigenvector-centrality ordering (Section III-C).
//
// The insight behind this ordering: the core ordering effectively ranks by
// *importance* (it considers neighbors' degrees, not just a vertex's own),
// and importance can be approximated fast. A few unnormalized power
// iterations of eigenvector centrality — each just sums neighbor scores —
// rank "important" vertices last, producing a maximum out-degree between
// core's and degree's with only three parallel passes.
#ifndef PIVOTSCALE_ORDER_CENTRALITY_ORDER_H_
#define PIVOTSCALE_ORDER_CENTRALITY_ORDER_H_

#include "graph/graph.h"
#include "order/ordering.h"

namespace pivotscale {

// Three power iterations, as in the paper; the ordering is named
// "centrality(iters=3)". Scores are rescaled by the maximum each iteration
// purely to avoid floating-point overflow; no PageRank-style normalization
// is needed.
Ordering CentralityOrdering(const Graph& g);

}  // namespace pivotscale

#endif  // PIVOTSCALE_ORDER_CENTRALITY_ORDER_H_

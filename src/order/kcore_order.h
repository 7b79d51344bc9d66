// Parallel k-core decomposition ordering (Section III-B).
//
// The k-core decomposition assigns each vertex its coreness: the largest k
// such that the vertex survives in the k-core. A level-synchronous parallel
// peel (in the style of ParK/PKC) computes coreness in rounds; the ordering
// ranks by (coreness, original degree, id) — the same tiebreak as the core
// approximation. Because many vertices share a coreness, this ordering has
// fewer distinct levels than a low-eps core approximation, which is why the
// paper finds it consistently lower quality (Figure 5).
#ifndef PIVOTSCALE_ORDER_KCORE_ORDER_H_
#define PIVOTSCALE_ORDER_KCORE_ORDER_H_

#include <vector>

#include "graph/graph.h"
#include "order/ordering.h"

namespace pivotscale {

// Per-vertex coreness via level-synchronous parallel peel.
std::vector<EdgeId> CoreDecomposition(const Graph& g);

// Ranks by (coreness, original degree, id). Ordering::rounds is the peel's
// synchronized sub-round count (the scaling-relevant quantity: each
// sub-round is a parallel pass followed by a barrier).
Ordering KCoreOrdering(const Graph& g);

}  // namespace pivotscale

#endif  // PIVOTSCALE_ORDER_KCORE_ORDER_H_

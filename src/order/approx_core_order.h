// Parallel core-ordering approximation (Algorithm 2, Section III-A).
//
// Instead of peeling one minimum-degree vertex at a time, each round removes
// *all* vertices whose remaining degree is below (1 + eps) times the average
// remaining degree, in parallel. eps trades ordering quality for round count:
// sufficiently negative eps (the paper uses -0.5) reproduces the core
// ordering's maximum out-degree; very large eps degenerates to the degree
// ordering. Rank key = (removal round, original degree, vertex id).
#ifndef PIVOTSCALE_ORDER_APPROX_CORE_ORDER_H_
#define PIVOTSCALE_ORDER_APPROX_CORE_ORDER_H_

#include "graph/graph.h"
#include "order/ordering.h"

namespace pivotscale {

// Ordering::rounds is the number of removal rounds (Figure 6 reports it).
Ordering ApproxCoreOrdering(const Graph& g, double epsilon);

}  // namespace pivotscale

#endif  // PIVOTSCALE_ORDER_APPROX_CORE_ORDER_H_

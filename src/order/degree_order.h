// Degree ordering (Section II-A): rank vertices by (degree, id) ascending.
//
// The cheapest useful ordering — one counting-sort pass over the degrees,
// O(|V| + max degree), with the ranks RanksFromKeys gives the degree keys —
// and the paper's finding is that on clique-poor graphs its locality
// advantage makes it the fastest *overall* choice despite a worse maximum
// out-degree.
#ifndef PIVOTSCALE_ORDER_DEGREE_ORDER_H_
#define PIVOTSCALE_ORDER_DEGREE_ORDER_H_

#include "graph/graph.h"
#include "order/ordering.h"

namespace pivotscale {

Ordering DegreeOrdering(const Graph& g);

}  // namespace pivotscale

#endif  // PIVOTSCALE_ORDER_DEGREE_ORDER_H_

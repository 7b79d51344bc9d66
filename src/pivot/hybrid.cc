#include "pivot/hybrid.h"

#include "baselines/enumeration.h"
#include "graph/dag.h"
#include "order/core_order.h"
#include "pivot/pivotscale.h"
#include "util/timer.h"

namespace pivotscale {

HybridResult CountKCliquesHybrid(const Graph& g, std::uint32_t k,
                                 const HybridConfig& config) {
  Timer timer;
  HybridResult result;
  result.used_pivoting = k >= config.pivot_threshold;

  if (result.used_pivoting) {
    PivotScaleOptions options;
    options.k = k;
    options.heuristic = config.heuristic;
    const PivotScaleResult ps = CountKCliques(g, options);
    result.total = ps.total;
    result.strategy = "pivotscale(" + ps.ordering_name + ")";
  } else {
    // Enumeration path: the core ordering minimizes the out-degree bound
    // that drives enumeration's per-level candidate sizes (kclist-style).
    const Ordering core = CoreOrdering(g);
    const Graph dag = Directionalize(g, core.ranks);
    EnumerationOptions options;
    options.k = k;
    result.total = CountCliquesEnumeration(dag, options).total;
    result.strategy = "enumeration(core)";
  }
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace pivotscale

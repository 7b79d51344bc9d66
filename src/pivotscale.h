// PivotScale public API umbrella header.
//
// Typical use:
//
//   #include "pivotscale.h"
//   using namespace pivotscale;
//
//   Graph g = LoadGraph("graph.el");                 // or a generator
//   BigCount cliques = CountKCliquesSimple(g, 8);    // full pipeline
//
// Fine-grained control (choose orderings, subgraph structures, collect
// instrumentation) is available through the individual headers, all of
// which this file includes. It spans both libraries (the `pivotscale`
// CMake target); a binary that links pivotscale_core alone includes the
// core headers it needs instead.
#ifndef PIVOTSCALE_PIVOTSCALE_H_
#define PIVOTSCALE_PIVOTSCALE_H_

#include "analysis/analysis.h"
#include "analysis/densest.h"
#include "approx/approx_count.h"
#include "baselines/enumeration.h"
#include "baselines/gpu_pivot_model.h"
#include "baselines/pivoter_naive.h"
#include "graph/builder.h"
#include "graph/dag.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/transform.h"
#include "order/approx_core_order.h"
#include "order/centrality_order.h"
#include "order/core_order.h"
#include "order/degree_order.h"
#include "order/heuristic.h"
#include "order/kcore_order.h"
#include "order/ordering.h"
#include "pivot/count.h"
#include "pivot/count_on.h"
#include "pivot/hybrid.h"
#include "pivot/maximal.h"
#include "pivot/pivoter.h"
#include "pivot/profile.h"
#include "pivot/pivotscale.h"
#include "sim/cache_sim.h"
#include "sim/mem_model.h"
#include "sim/scaling_sim.h"
#include "sim/work_trace.h"
#include "util/ascii_chart.h"
#include "util/binomial.h"
#include "util/timer.h"
#include "util/uint128.h"

#endif  // PIVOTSCALE_PIVOTSCALE_H_

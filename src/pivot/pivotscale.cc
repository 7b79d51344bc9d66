#include "pivot/pivotscale.h"

#include <stdexcept>

#include "graph/dag.h"
#include "util/telemetry.h"
#include "util/timer.h"

namespace pivotscale {

PreparedDag PrepareDag(const Graph& g, const HeuristicConfig& heuristic,
                       const std::optional<OrderingSpec>& forced,
                       TelemetryRegistry* telemetry) {
  if (!g.undirected())
    throw std::invalid_argument("PrepareDag: input must be undirected");

  PreparedDag prepared;
  Timer phase;

  OrderingSpec spec;
  if (forced.has_value()) {
    spec = *forced;
  } else {
    prepared.decision = SelectOrdering(g, heuristic, telemetry);
    spec.kind = prepared.decision.use_core_approx ? OrderingKind::kApproxCore
                                                  : OrderingKind::kDegree;
    spec.epsilon = heuristic.epsilon;
  }
  prepared.heuristic_seconds = phase.Seconds();
  phase.Reset();

  prepared.ordering = ComputeOrdering(g, spec, telemetry);
  prepared.ordering_seconds = phase.Seconds();
  phase.Reset();

  prepared.dag = Directionalize(g, prepared.ordering.ranks, telemetry);
  prepared.max_out_degree = MaxOutDegree(prepared.dag);
  prepared.directionalize_seconds = phase.Seconds();
  return prepared;
}

PivotScaleResult CountKCliques(const Graph& g,
                               const PivotScaleOptions& options) {
  TelemetryRegistry* telemetry = options.telemetry;
  const PreparedDag prepared = PrepareDag(
      g, options.heuristic, options.forced_ordering, telemetry);
  PivotScaleResult result;
  result.decision = prepared.decision;
  result.ordering_name = prepared.ordering.name;
  result.max_out_degree = prepared.max_out_degree;
  result.heuristic_seconds = prepared.heuristic_seconds;
  result.ordering_seconds = prepared.ordering_seconds;
  result.directionalize_seconds = prepared.directionalize_seconds;

  CountOptions count_options = options.count;
  count_options.k = options.k;
  if (count_options.telemetry == nullptr)
    count_options.telemetry = telemetry;
  Timer count_timer;
  result.count = CountCliques(prepared.dag, count_options);
  result.counting_seconds = count_timer.Seconds();

  result.total = result.count.total;
  result.total_seconds = result.heuristic_seconds + result.ordering_seconds +
                         result.directionalize_seconds +
                         result.counting_seconds;

  if (telemetry != nullptr) {
    telemetry->RecordSpan("heuristic", result.heuristic_seconds);
    telemetry->RecordSpan("ordering", result.ordering_seconds);
    telemetry->RecordSpan("directionalize", result.directionalize_seconds);
    telemetry->RecordSpan("counting", result.counting_seconds);
    telemetry->SetGauge("pipeline.k", options.k);
    telemetry->SetGauge("pipeline.nodes", static_cast<double>(g.NumNodes()));
    telemetry->SetGauge("pipeline.undirected_edges",
                        static_cast<double>(g.NumUndirectedEdges()));
  }
  return result;
}

BigCount CountKCliquesSimple(const Graph& g, std::uint32_t k) {
  PivotScaleOptions options;
  options.k = k;
  return CountKCliques(g, options).total;
}

}  // namespace pivotscale

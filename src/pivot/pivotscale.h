// The full PivotScale pipeline: heuristic -> ordering -> directionalize ->
// count, with the phase breakdown the evaluation reports.
//
// This is the library's top-level entry point. Given an undirected graph
// and a target clique size it (1) runs the order-selecting heuristic of
// Section III-E (unless an ordering is forced), (2) computes the chosen
// ordering, (3) directionalizes, and (4) runs the vertex-parallel counting
// phase (CountCliques, pivot/count.h: the bitmap kernel).
#ifndef PIVOTSCALE_PIVOT_PIVOTSCALE_H_
#define PIVOTSCALE_PIVOT_PIVOTSCALE_H_

#include <optional>
#include <string>

#include "graph/graph.h"
#include "order/heuristic.h"
#include "order/ordering.h"
#include "pivot/count.h"

namespace pivotscale {

class TelemetryRegistry;

struct PivotScaleOptions {
  std::uint32_t k = 8;
  // Heuristic thresholds (Section III-E). min_nodes defaults to the paper's
  // 1M; bench binaries scale it to the synthetic suite.
  HeuristicConfig heuristic;
  // When set, skip the heuristic and use exactly this ordering.
  std::optional<OrderingSpec> forced_ordering;
  // Counting-phase options. `count.k` is overridden by this struct's `k`;
  // `count.mode` is forced to kAllK when `all_k` is set and respected
  // otherwise (so kAllUpToK is reachable through the pipeline).
  CountOptions count;
  // Count every clique size up to the maximum instead of only k.
  bool all_k = false;
  // When non-null, every phase records into this registry: "heuristic",
  // "ordering", "directionalize", and "counting" spans plus each stage's
  // probe/round/load-balance metrics (see docs/api_tour.md "Telemetry").
  // Also forwarded to the counting driver unless count.telemetry is set.
  TelemetryRegistry* telemetry = nullptr;
};

struct PivotScaleResult {
  BigCount total{};                 // k-cliques counted
  HeuristicDecision decision;       // probes (zeroed if ordering forced)
  std::string ordering_name;
  EdgeId max_out_degree = 0;        // ordering quality
  CountResult count;                // counting-phase details

  double heuristic_seconds = 0;
  double ordering_seconds = 0;
  double directionalize_seconds = 0;
  double counting_seconds = 0;
  // Everything except reading/building the input graph — the paper's
  // reported "total time".
  double total_seconds = 0;
};

// Runs the pipeline. The input must be undirected and simple.
PivotScaleResult CountKCliques(const Graph& g,
                               const PivotScaleOptions& options = {});

// Convenience one-liner: heuristic-selected ordering, production kernel.
BigCount CountKCliquesSimple(const Graph& g, std::uint32_t k);

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_PIVOTSCALE_H_

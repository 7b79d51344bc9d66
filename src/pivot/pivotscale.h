// The full PivotScale pipeline: heuristic -> ordering -> directionalize ->
// count, with the phase breakdown the evaluation reports.
//
// This is the library's top-level entry point. Given an undirected graph
// and a target clique size it (1) runs the order-selecting heuristic of
// Section III-E (unless an ordering is forced), (2) computes the chosen
// ordering, (3) directionalizes, and (4) runs the vertex-parallel counting
// phase (CountCliques, pivot/count.h: the bitmap kernel). Steps (1)-(3)
// are the query-independent prefix, PrepareDag: CountKCliques, the .psx
// store's BuildArtifact (store/artifact.h) and the benches' traced
// pipeline all run it, so the heuristic's choice of ordering is made in
// one place.
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

// The pipeline prefix's output: the ordering the heuristic (or the caller)
// chose, and the graph directionalized by it.
struct PreparedDag {
  HeuristicDecision decision;  // probes (zeroed if ordering forced)
  Ordering ordering;           // name, ranks, rounds
  Graph dag;                   // Directionalize(g, ordering.ranks)
  EdgeId max_out_degree = 0;   // of `dag` (ordering quality)
  double heuristic_seconds = 0;
  double ordering_seconds = 0;
  double directionalize_seconds = 0;  // includes MaxOutDegree
};

// Runs steps (1)-(3) on an undirected simple graph: the heuristic under
// `heuristic` picks degree or approx-core (with heuristic.epsilon) unless
// `forced` names the ordering, then the ordering and the DAG are computed.
// `telemetry` goes to SelectOrdering, ComputeOrdering and Directionalize;
// PrepareDag records no span of its own (callers name the phases).
PreparedDag PrepareDag(const Graph& g, const HeuristicConfig& heuristic,
                       const std::optional<OrderingSpec>& forced,
                       TelemetryRegistry* telemetry = nullptr);

struct PivotScaleOptions {
  std::uint32_t k = 8;
  // Heuristic thresholds (Section III-E). min_nodes defaults to the paper's
  // 1M; bench binaries scale it to the synthetic suite.
  HeuristicConfig heuristic;
  // When set, skip the heuristic and use exactly this ordering.
  std::optional<OrderingSpec> forced_ordering;
  // Counting-phase options. `count.k` is overridden by this struct's `k`;
  // `count.mode` flows through (kAllK counts every clique size, kAllUpToK
  // every size up to k).
  CountOptions count;
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

// BuildArtifact, apart from store/artifact.cc's reader and writer, so that
// pivotscale_served, which only reads, links no ordering.
#include "store/artifact.h"

#include <utility>

#include "order/core_order.h"
#include "pivot/pivotscale.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace pivotscale {

GraphArtifact BuildArtifact(const Graph& g,
                            const ArtifactBuildOptions& options) {
  TelemetryRegistry* telemetry = options.telemetry;
  PreparedDag prepared =
      PrepareDag(g, options.heuristic, options.forced_ordering, telemetry);
  if (telemetry != nullptr) {
    telemetry->RecordSpan("store.heuristic", prepared.heuristic_seconds);
    telemetry->RecordSpan("store.ordering", prepared.ordering_seconds);
    telemetry->RecordSpan("store.directionalize",
                          prepared.directionalize_seconds);
  }
  GraphArtifact artifact;
  artifact.ordering_name = std::move(prepared.ordering.name);
  artifact.ranks = std::move(prepared.ordering.ranks);
  artifact.dag = std::move(prepared.dag);
  artifact.max_out_degree = prepared.max_out_degree;

  if (options.compute_degeneracy) {
    TelemetryRegistry::ScopedSpan span(telemetry, "store.degeneracy");
    artifact.degeneracy = Degeneracy(g);
  }

  artifact.graph = g;
  // Pipeline postconditions every consumer (writer, query engine) builds
  // on; a mismatch here means one of the phases above broke its contract.
  CHECK_EQ(artifact.ranks.size(), static_cast<std::size_t>(g.NumNodes()));
  CHECK_EQ(artifact.dag.NumNodes(), g.NumNodes());
  CHECK_EQ(artifact.dag.NumDirectedEdges() * 2, g.NumDirectedEdges())
      << "BuildArtifact: DAG must hold each undirected edge exactly once";
  return artifact;
}

}  // namespace pivotscale

#include "graph/dag.h"

#include <stdexcept>
#include <vector>

#include "exec/executor.h"
#include "util/check.h"
#include "util/prefix_sum.h"
#include "util/telemetry.h"

namespace pivotscale {

Graph Directionalize(const Graph& g, std::span<const NodeId> ranks,
                     TelemetryRegistry* telemetry) {
  const NodeId n = g.NumNodes();
  if (ranks.size() != n)
    throw std::invalid_argument("Directionalize: ranks size mismatch");
  if (!IsPermutation(ranks))
    throw std::invalid_argument("Directionalize: ranks not a permutation");

  // Out-degrees, scanned in place into the offsets: entry n starts at 0
  // and ends as the total.
  std::vector<EdgeId> offsets(std::size_t{n} + 1, 0);
  ExecOptions exec_options;
  exec_options.grain = 1024;
  ParallelFor(n, exec_options, [&](std::size_t i) {
    const auto u = static_cast<NodeId>(i);
    EdgeId deg = 0;
    for (NodeId v : g.Neighbors(u)) {
      // Always-on range check: an out-of-range neighbor here would index
      // ranks[] out of bounds and silently corrupt every count downstream.
      // The file readers validate their own input, so a failure means an
      // in-memory producer broke the CSR contract.
      CHECK_LT(v, n) << "Directionalize: neighbor of vertex " << u
                     << " is outside the graph";
      if (ranks[u] < ranks[v]) ++deg;
    }
    offsets[u] = deg;
  });
  const EdgeId total = ParallelPrefixSum(offsets, &offsets);

  std::vector<NodeId> neighbors(total);
  const std::uint64_t edge_flips = ParallelReduce(
      n, exec_options, std::uint64_t{0},
      [&](std::uint64_t& flips, std::size_t i) {
        const auto u = static_cast<NodeId>(i);
        EdgeId pos = offsets[u];
        for (NodeId v : g.Neighbors(u))
          if (ranks[u] < ranks[v]) {
            DCHECK_LT(pos, offsets[u + 1]);
            neighbors[pos++] = v;
            if (u > v) ++flips;
          }
        // Both passes must agree on each row's out-degree or the CSR rows
        // would overlap.
        DCHECK_EQ(pos, offsets[u + 1]);
      },
      [](std::uint64_t& into, std::uint64_t from) { into += from; });

  Graph dag(std::move(offsets), std::move(neighbors),
            /*undirected=*/false);
  if (telemetry != nullptr) {
    telemetry->SetGauge("directionalize.max_out_degree",
                        static_cast<double>(dag.MaxDegree()));
    telemetry->SetGauge("directionalize.edges", static_cast<double>(total));
    telemetry->AddCounter("directionalize.edge_flips", edge_flips);
  }
  return dag;
}

EdgeId MaxOutDegree(const Graph& dag) { return dag.MaxDegree(); }

}  // namespace pivotscale

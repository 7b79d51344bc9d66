// CPU model of GPU-Pivot (Almasri et al., ICS'22).
//
// The paper compares against GPU-Pivot using its published numbers; this
// environment has no GPU, so this baseline executes GPU-Pivot's *algorithmic
// structure* on the CPU (see DESIGN.md substitutions): the first-level
// subgraph is a binary-encoded adjacency matrix, and — because that encoding
// does not support reversible mutations — the candidate set is re-intersected
// from scratch at every recursion level. The extra per-level intersection
// work is exactly why GPU-Pivot's time grows with k on clique-rich graphs
// (Section VI-G), the behaviour this model reproduces. Counting semantics
// are identical to Pivoter (cross-validated in the tests).
#ifndef PIVOTSCALE_BASELINES_GPU_PIVOT_MODEL_H_
#define PIVOTSCALE_BASELINES_GPU_PIVOT_MODEL_H_

#include <cstdint>

#include "graph/graph.h"
#include "util/uint128.h"

namespace pivotscale {

struct GpuPivotModelResult {
  BigCount total{};
  double seconds = 0;
  // Bytes of the per-thread bit-matrix workspace (GPU-Pivot's memory
  // footprint advantage over a per-thread adjacency-list subgraph).
  std::size_t workspace_bytes = 0;
};

// Counts k-cliques on a directionalized DAG with the bit-matrix
// rebuild-per-level pivoting recursion.
GpuPivotModelResult CountCliquesGpuPivotModel(const Graph& dag,
                                              std::uint32_t k);

}  // namespace pivotscale

#endif  // PIVOTSCALE_BASELINES_GPU_PIVOT_MODEL_H_

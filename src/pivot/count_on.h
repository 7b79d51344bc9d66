// The reproduction's counting entry: the driver of CountCliques
// (pivot/count_driver.h) on one named kernel — the paper's three
// thread-local subgraph structures of Section IV, each driven by the
// Pivoter recursion (pivot/pivoter.h), or the production bitmap kernel
// (pivot/bitmap_counter.h) — optionally recording per-root work for the
// scaling simulation (sim/scaling_sim.h). Benches and crosscheck tests
// count through here; production code calls CountCliques.
#ifndef PIVOTSCALE_PIVOT_COUNT_ON_H_
#define PIVOTSCALE_PIVOT_COUNT_ON_H_

#include <string>

#include "graph/graph.h"
#include "pivot/count.h"
#include "sim/work_trace.h"

namespace pivotscale {

// The counting kernels a run can name.
enum class SubgraphKind {
  kDense,   // |V|-sized index (original Pivoter layout)
  kSparse,  // hash-indexed compact slots
  kRemap,   // first-level id remap + compact dense arrays (this paper's)
  kBitmap,  // the production bit-matrix kernel (pivot/bitmap_counter.h)
};

std::string SubgraphKindName(SubgraphKind kind);

// Counts cliques on a directionalized DAG exactly as CountCliques does,
// but with the kernel `kind` names (kBitmap is CountCliques itself). When
// `trace` is non-null it receives one RootWork per root, indexed by root
// id, and the run collects op stats.
CountResult CountCliquesOn(const Graph& dag, const CountOptions& options,
                           SubgraphKind kind, WorkTrace* trace = nullptr);

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_COUNT_ON_H_

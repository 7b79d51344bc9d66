#include "pivot/count_on.h"

#include <stdexcept>

#include "pivot/bitmap_counter.h"
#include "pivot/count_driver.h"
#include "pivot/pivoter.h"
#include "pivot/subgraph_dense.h"
#include "pivot/subgraph_remap.h"
#include "pivot/subgraph_sparse.h"
#include "util/timer.h"

namespace pivotscale {

std::string SubgraphKindName(SubgraphKind kind) {
  switch (kind) {
    case SubgraphKind::kDense:
      return "dense";
    case SubgraphKind::kSparse:
      return "sparse";
    case SubgraphKind::kRemap:
      return "remap";
    case SubgraphKind::kBitmap:
      return "bitmap";
  }
  return "unknown";
}

namespace {

template <typename Stats, typename Policy>
using DenseCounter = PivotCounter<DenseSubgraph, Stats, Policy>;
template <typename Stats, typename Policy>
using SparseCounter = PivotCounter<SparseSubgraph, Stats, Policy>;
template <typename Stats, typename Policy>
using RemapCounter = PivotCounter<RemapSubgraph, Stats, Policy>;

template <typename Step>
CountResult DispatchKind(const Graph& dag, const CountOptions& options,
                         SubgraphKind kind, Step step) {
  switch (kind) {
    case SubgraphKind::kDense:
      return DispatchCountDriver<DenseCounter>(dag, options, step);
    case SubgraphKind::kSparse:
      return DispatchCountDriver<SparseCounter>(dag, options, step);
    case SubgraphKind::kRemap:
      return DispatchCountDriver<RemapCounter>(dag, options, step);
    case SubgraphKind::kBitmap:
      return DispatchCountDriver<BitmapCounter>(dag, options, step);
  }
  throw std::invalid_argument("CountCliquesOn: unknown subgraph kind");
}

}  // namespace

CountResult CountCliquesOn(const Graph& dag, const CountOptions& options,
                           SubgraphKind kind, WorkTrace* trace) {
  ValidateCountArgs(dag, options, "CountCliquesOn");
  if (trace == nullptr) {
    return DispatchKind(dag, options, kind, [](auto& counter, NodeId root) {
      counter.ProcessRoot(root);
    });
  }
  // Each root's row is written by the one worker that runs it.
  trace->roots.assign(dag.NumNodes(), RootWork{});
  CountOptions traced = options;
  traced.collect_op_stats = true;
  return DispatchKind(
      dag, traced, kind, [&dag, trace](auto& counter, NodeId root) {
        const std::uint64_t ops_before = counter.stats().Snapshot().edge_ops;
        Timer root_timer;
        counter.ProcessRoot(root);
        trace->roots[root] = {
            root, root_timer.Nanos(),
            counter.stats().Snapshot().edge_ops - ops_before,
            dag.Degree(root)};
      });
}

}  // namespace pivotscale

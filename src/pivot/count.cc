#include "pivot/count.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "exec/executor.h"
#include "pivot/bitmap_counter.h"
#include "pivot/subgraph_dense.h"
#include "pivot/subgraph_remap.h"
#include "pivot/subgraph_sparse.h"
#include "util/check.h"
#include "util/stats.h"
#include "util/telemetry.h"
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
  }
  return "unknown";
}

namespace {

// Dumps one finished driver run into the registry: per-thread series, op
// totals, and load-balance gauges. `roots` is the number of DAG roots.
void RecordCountTelemetry(TelemetryRegistry* telemetry,
                          const CountResult& result,
                          const ExecStats& exec_stats, std::uint64_t roots) {
  if (telemetry == nullptr) return;
  telemetry->SetSeries("count.thread_busy_seconds",
                       result.thread_busy_seconds);
  std::vector<double> chunk_series(exec_stats.worker_chunks.size());
  for (std::size_t t = 0; t < exec_stats.worker_chunks.size(); ++t)
    chunk_series[t] = static_cast<double>(exec_stats.worker_chunks[t]);
  telemetry->SetSeries("count.thread_chunks", std::move(chunk_series));
  telemetry->AddCounter("count.chunks", exec_stats.chunks);
  telemetry->AddCounter("count.roots", roots);
  telemetry->AddCounter("count.recursion_calls", result.ops.calls);
  telemetry->AddCounter("count.edge_ops", result.ops.edge_ops);
  telemetry->AddCounter("count.induces", result.ops.induces);
  telemetry->AddCounter("count.memberships", result.ops.memberships);
  telemetry->SetGauge("count.threads",
                      static_cast<double>(result.thread_busy_seconds.size()));
  telemetry->SetGauge("count.workspace_bytes",
                      static_cast<double>(result.workspace_bytes));
  telemetry->SetGauge("count.busy_cov",
                      CoeffOfVariation(result.thread_busy_seconds));
  telemetry->RecordSpan("count.wall", result.seconds);
}

// The driver body, instantiated per counter type (the bitmap kernel or one
// paper structure), stats policy and count policy. One exec-layer region
// over the roots; each worker owns a Counter (its reduction slot) and the
// merge runs serially after the region.
template <typename Counter>
CountResult Run(const Graph& dag, const CountOptions& options) {
  const NodeId n = dag.NumNodes();
  const auto max_out = static_cast<std::uint32_t>(dag.MaxDegree());
  const std::uint32_t bound = max_out + 1;
  const BinomialTable binom(bound + 1);

  CountResult result;
  if (options.per_vertex) result.per_vertex.assign(n, BigCount{});
  if (options.collect_work_trace) result.work_trace.roots.resize(n);

  // One task per root, weighted by the estimate (out_degree + 1)^2 for
  // the chunking cost model.
  ExecOptions exec_options;
  exec_options.num_threads = options.num_threads;
  exec_options.chunks_per_worker = 16;
  exec_options.cost = [&dag](std::size_t root) {
    const auto d = static_cast<double>(dag.Degree(static_cast<NodeId>(root)));
    return (d + 1) * (d + 1);
  };
  exec_options.telemetry = options.telemetry;

  const ExecStats exec_stats = ParallelForWorkers(
      n, exec_options,
      [&](int) {
        return Counter(dag, options.k, bound, &binom,
                       options.early_termination);
      },
      [&](Counter& counter, std::size_t root) {
        const auto v = static_cast<NodeId>(root);
        if (!options.collect_work_trace) {
          counter.ProcessRoot(v);
          return;
        }
        const std::uint64_t ops_before = counter.stats().Snapshot().edge_ops;
        Timer root_timer;
        counter.ProcessRoot(v);
        result.work_trace.roots[v] = {
            v, root_timer.Nanos(),
            counter.stats().Snapshot().edge_ops - ops_before, dag.Degree(v)};
      },
      [&](Counter& counter) {
        result.total += counter.total();
        result.profile.Merge(counter.profile());
        if (options.per_vertex) {
          const auto& pv = counter.per_vertex_counts();
          CHECK_EQ(pv.size(), result.per_vertex.size());
          for (NodeId v = 0; v < n; ++v) result.per_vertex[v] += pv[v];
        }
        result.ops += counter.stats().Snapshot();
        result.workspace_bytes +=
            counter.WorkspaceBytes() + counter.profile().Bytes();
      });

  result.seconds = exec_stats.seconds;
  result.thread_busy_seconds = exec_stats.worker_busy_seconds;

  // Sizes past bound + 1 hold no clique; kAllUpToK's profile is exact only
  // up to k, and kSingleK's is empty.
  const std::uint32_t max_size = options.mode == CountMode::kAllUpToK
                                     ? std::min(options.k, bound + 1)
                                     : bound + 1;
  result.per_size = result.profile.PerSize(max_size);
  result.per_size.resize(bound + 2);
  if (options.mode != CountMode::kSingleK)
    result.total = options.k <= max_size ? result.per_size[options.k]
                                         : BigCount{};
  RecordCountTelemetry(options.telemetry, result, exec_stats, n);
  return result;
}

// Instantiates the driver for counter template C at the stats policy the
// options ask for and the count policy of their mode and per-vertex flag:
// the only place a run's mode is tested.
template <template <typename, typename> class C>
CountResult Dispatch(const Graph& dag, const CountOptions& options) {
  // Telemetry wants the op totals, so it rides the counting stats policy.
  const bool op_stats = options.collect_op_stats ||
                        options.collect_work_trace ||
                        options.telemetry != nullptr;
  return WithCountPolicy(options.mode, options.per_vertex, [&](auto policy) {
    using Policy = decltype(policy);
    if (op_stats) return Run<C<OpCountStats, Policy>>(dag, options);
    return Run<C<NoStats, Policy>>(dag, options);
  });
}

template <typename Stats, typename Policy>
using DenseCounter = PivotCounter<DenseSubgraph, Stats, Policy>;
template <typename Stats, typename Policy>
using SparseCounter = PivotCounter<SparseSubgraph, Stats, Policy>;
template <typename Stats, typename Policy>
using RemapCounter = PivotCounter<RemapSubgraph, Stats, Policy>;

}  // namespace

CountResult CountCliques(const Graph& dag, const CountOptions& options) {
  if (dag.undirected())
    throw std::invalid_argument(
        "CountCliques: expected a directionalized DAG (got an undirected "
        "graph); call Directionalize first");
  if (options.per_vertex && options.mode != CountMode::kSingleK)
    throw std::invalid_argument(
        "CountCliques: per-vertex counts require kSingleK mode");
  if (options.k < 1)
    throw std::invalid_argument("CountCliques: k must be >= 1");

  switch (options.structure) {
    case SubgraphKind::kDense:
      return Dispatch<DenseCounter>(dag, options);
    case SubgraphKind::kSparse:
      return Dispatch<SparseCounter>(dag, options);
    case SubgraphKind::kRemap:
      // One kernel per run: the remap structure only where the CPU lacks
      // the bitmap kernel's popcount.
      if (BitmapKernelSupported()) return Dispatch<BitmapCounter>(dag, options);
      return Dispatch<RemapCounter>(dag, options);
  }
  throw std::invalid_argument("CountCliques: unknown subgraph structure");
}

}  // namespace pivotscale

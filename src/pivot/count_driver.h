// The counting driver body, shared by the production entry CountCliques
// (pivot/count.cc) and the paper-structure entry CountCliquesOn
// (pivot/count_on.cc): one exec-layer region over the DAG's roots, one
// counter per worker (its reduction slot), and a serial merge after the
// region. A run's counter type, stats policy and count policy are fixed at
// compile time; the caller supplies what a worker does with one root.
#ifndef PIVOTSCALE_PIVOT_COUNT_DRIVER_H_
#define PIVOTSCALE_PIVOT_COUNT_DRIVER_H_

#include <algorithm>
#include <cstdint>

#include "exec/executor.h"
#include "graph/graph.h"
#include "pivot/clique_leaves.h"
#include "pivot/count.h"
#include "pivot/stats.h"
#include "util/binomial.h"
#include "util/check.h"

namespace pivotscale {

// Throws std::invalid_argument unless `dag` is directionalized and the
// options name a valid run (k >= 1; per-vertex counts in kSingleK only).
// `entry` names the caller in the message.
void ValidateCountArgs(const Graph& dag, const CountOptions& options,
                       const char* entry);

// Dumps one finished driver run into options.telemetry (a no-op when it is
// null): per-thread series, op totals and load-balance gauges.
void RecordCountTelemetry(const CountOptions& options,
                          const CountResult& result,
                          const ExecStats& exec_stats, std::uint64_t roots);

// Runs every root of `dag` through `step(counter, root)` on one Counter
// per worker, weighted by the estimate (out_degree + 1)^2 for the chunking
// cost model, and merges the counters into one result.
template <typename Counter, typename Step>
CountResult RunCountDriver(const Graph& dag, const CountOptions& options,
                           Step& step) {
  const NodeId n = dag.NumNodes();
  const auto max_out = static_cast<std::uint32_t>(dag.MaxDegree());
  const std::uint32_t bound = max_out + 1;
  const BinomialTable binom(bound + 1);

  CountResult result;
  if (options.per_vertex) result.per_vertex.assign(n, BigCount{});

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
        step(counter, static_cast<NodeId>(root));
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
  RecordCountTelemetry(options, result, exec_stats, n);
  return result;
}

// Runs the driver on counter template C at the stats policy the options
// ask for and the count policy of their mode and per-vertex flag: the only
// place a run's mode is tested. `step` is generic over the counter type.
template <template <typename, typename> class C, typename Step>
CountResult DispatchCountDriver(const Graph& dag, const CountOptions& options,
                                Step step) {
  // Telemetry wants the op totals, so it rides the counting stats policy.
  const bool op_stats =
      options.collect_op_stats || options.telemetry != nullptr;
  return WithCountPolicy(options.mode, options.per_vertex, [&](auto policy) {
    using Policy = decltype(policy);
    if (op_stats)
      return RunCountDriver<C<OpCountStats, Policy>>(dag, options, step);
    return RunCountDriver<C<NoStats, Policy>>(dag, options, step);
  });
}

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_COUNT_DRIVER_H_

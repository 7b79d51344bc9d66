#include "pivot/count.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "pivot/bitmap_counter.h"
#include "pivot/count_driver.h"
#include "util/stats.h"
#include "util/telemetry.h"

namespace pivotscale {

void ValidateCountArgs(const Graph& dag, const CountOptions& options,
                       const char* entry) {
  const std::string name = entry;
  if (dag.undirected())
    throw std::invalid_argument(
        name +
        ": expected a directionalized DAG (got an undirected graph); call "
        "Directionalize first");
  if (options.per_vertex && options.mode != CountMode::kSingleK)
    throw std::invalid_argument(name +
                                ": per-vertex counts require kSingleK mode");
  if (options.k < 1) throw std::invalid_argument(name + ": k must be >= 1");
}

void RecordCountTelemetry(const CountOptions& options,
                          const CountResult& result,
                          const ExecStats& exec_stats, std::uint64_t roots) {
  TelemetryRegistry* telemetry = options.telemetry;
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

CountResult CountCliques(const Graph& dag, const CountOptions& options) {
  ValidateCountArgs(dag, options, "CountCliques");
  return DispatchCountDriver<BitmapCounter>(
      dag, options,
      [](auto& counter, NodeId root) { counter.ProcessRoot(root); });
}

std::vector<VertexCount> RankVerticesByCount(
    std::span<const BigCount> per_vertex, std::size_t top) {
  std::vector<NodeId> order;
  for (NodeId v = 0; v < per_vertex.size(); ++v)
    if (per_vertex[v] != BigCount{}) order.push_back(v);
  top = std::min(top, order.size());
  std::partial_sort(order.begin(), order.begin() + top, order.end(),
                    [&](NodeId a, NodeId b) {
                      if (per_vertex[a] != per_vertex[b])
                        return per_vertex[b] < per_vertex[a];
                      return a < b;
                    });
  std::vector<VertexCount> ranked;
  ranked.reserve(top);
  for (std::size_t t = 0; t < top; ++t)
    ranked.push_back({order[t], per_vertex[order[t]]});
  return ranked;
}

}  // namespace pivotscale

#include "exec/executor.h"

#include <algorithm>

#include "util/stats.h"
#include "util/telemetry.h"

namespace pivotscale {
namespace exec_detail {

std::vector<std::size_t> BuildChunkBounds(std::size_t n, int team,
                                          const ExecOptions& options) {
  std::vector<std::size_t> bounds;
  bounds.push_back(0);
  if (n == 0) return bounds;

  const std::size_t grain = std::max<std::size_t>(1, options.grain);
  const std::size_t target_chunks =
      std::max<std::size_t>(1, static_cast<std::size_t>(team) *
                                   std::max(1, options.chunks_per_worker));
  if (options.cost) {
    // Equal-estimated-work cuts: walk the prefix sum of the cost estimates
    // and cut every ~total/target_chunks units. Estimates are clamped to
    // >= 1 so zero-cost runs still advance the cut positions.
    double total = 0;
    std::vector<double> prefix(n);
    for (std::size_t i = 0; i < n; ++i) {
      total += std::max(1.0, options.cost(i));
      prefix[i] = total;
    }
    const double per_chunk =
        std::max(1.0, total / static_cast<double>(target_chunks));
    double next_cut = per_chunk;
    for (std::size_t i = 1; i < n; ++i) {
      if (prefix[i - 1] >= next_cut && i - bounds.back() >= grain) {
        bounds.push_back(i);
        next_cut = prefix[i - 1] + per_chunk;
      }
    }
  } else {
    const std::size_t chunk =
        std::max(grain, (n + target_chunks - 1) / target_chunks);
    for (std::size_t b = chunk; b < n; b += chunk) bounds.push_back(b);
  }
  bounds.push_back(n);
  return bounds;
}

void RecordExecTelemetry(TelemetryRegistry* telemetry,
                         const ExecStats& stats) {
  if (telemetry == nullptr) return;
  telemetry->AddCounter("exec.regions", 1);
  telemetry->AddCounter("exec.tasks", stats.tasks);
  telemetry->AddCounter("exec.chunks", stats.chunks);
  telemetry->SetSeries("exec.worker_busy_seconds",
                       stats.worker_busy_seconds);
  std::vector<double> chunk_series(stats.worker_chunks.size());
  for (std::size_t t = 0; t < stats.worker_chunks.size(); ++t)
    chunk_series[t] = static_cast<double>(stats.worker_chunks[t]);
  telemetry->SetSeries("exec.worker_chunks", std::move(chunk_series));
  telemetry->SetGauge("exec.team", static_cast<double>(stats.team));
  telemetry->SetGauge("exec.busy_cov",
                      CoeffOfVariation(stats.worker_busy_seconds));
  telemetry->RecordSpan("exec.region_wall", stats.seconds);
}

}  // namespace exec_detail
}  // namespace pivotscale

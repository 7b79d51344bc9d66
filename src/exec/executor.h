// The unified parallel execution layer. Every parallel loop in the tree
// runs through these primitives; no raw `#pragma omp parallel` region
// lives outside this directory (tools/lint.py `raw-omp-parallel`).
//
// What this layer adds over a bare OpenMP pragma:
//   * a team leased from the process-wide ThreadBudget, so concurrent
//     regions (serving workers x counting teams) cannot oversubscribe the
//     machine;
//   * per-worker reduction slots: each worker gets a private accumulator
//     built by a factory and the caller merges them serially after the
//     region — no `critical` sections anywhere;
//   * cost-weighted adaptive chunking: an optional per-item cost estimate
//     turns into chunk boundaries of roughly equal estimated work, so a
//     few heavy items do not serialize the tail of the loop;
//   * `exec.*` telemetry: tasks, chunks, per-worker busy-second
//     and chunk-count series, team size, and busy-time CoV.
//
// Sizing is always realized-team authoritative: per-worker arrays are
// sized to omp_get_num_threads() inside the region, never to the request
// (OpenMP may deliver fewer threads, e.g. a team of 1 inside an active
// region with nesting disabled).
#ifndef PIVOTSCALE_EXEC_EXECUTOR_H_
#define PIVOTSCALE_EXEC_EXECUTOR_H_

#include <omp.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "exec/thread_budget.h"
#include "util/check.h"
#include "util/timer.h"

namespace pivotscale {

class TelemetryRegistry;

struct ExecOptions {
  // Requested team size; 0 = everything the budget has free. The actual
  // grant comes from ThreadBudget::Global().
  int num_threads = 0;
  // Minimum items per chunk (uniform mode) / minimum items between two
  // cost-weighted cuts.
  std::size_t grain = 1;
  // Target chunks per worker. Higher = finer-grained self-scheduling;
  // 1 reproduces a static partition (one contiguous block per worker).
  int chunks_per_worker = 8;
  // Optional per-item work estimate. When set, chunk boundaries equalize
  // estimated work instead of item count.
  std::function<double(std::size_t)> cost;
  // When non-null the region records exec.* metrics here. Not owned.
  TelemetryRegistry* telemetry = nullptr;
};

// What one region observed. worker_* vectors are sized to the realized
// team, not the request.
struct ExecStats {
  int team = 0;
  std::uint64_t tasks = 0;   // items handed to the region
  std::uint64_t chunks = 0;  // chunk count after (cost-weighted) slicing
  double seconds = 0;        // region wall time
  std::vector<double> worker_busy_seconds;
  std::vector<std::uint64_t> worker_chunks;
};

namespace exec_detail {

// Chunk boundaries for n items: bounds[c]..bounds[c+1] is chunk c.
// Uniform when options.cost is unset, estimated-work-equalizing otherwise.
std::vector<std::size_t> BuildChunkBounds(std::size_t n, int team,
                                          const ExecOptions& options);

void RecordExecTelemetry(TelemetryRegistry* telemetry,
                         const ExecStats& stats);

}  // namespace exec_detail

// The core primitive: runs `body(worker, item)` over items [0, n) on a
// leased team. Each realized worker owns a private `Worker` built by
// `make_worker(tid)`; after the region, `merge(worker)` runs serially
// (in tid order) over every constructed worker. Workers pull chunks off a
// shared atomic cursor, so a worker finishing early keeps eating chunks.
template <typename MakeWorker, typename Body, typename Merge>
ExecStats ParallelForWorkers(std::size_t n, const ExecOptions& options,
                             MakeWorker&& make_worker, Body&& body,
                             Merge&& merge) {
  using Worker = std::decay_t<decltype(make_worker(0))>;

  ThreadLease lease = ThreadBudget::Global().Acquire(options.num_threads);
  const int granted = lease.threads();
  const std::vector<std::size_t> bounds =
      exec_detail::BuildChunkBounds(n, granted, options);
  const std::size_t num_chunks = bounds.empty() ? 0 : bounds.size() - 1;

  ExecStats stats;
  stats.tasks = n;
  stats.chunks = num_chunks;
  // Sized here, on the calling thread, and only shrunk inside the region:
  // an allocation there would land in the malloc arena of whichever thread
  // runs the `single`, so the caller's heap layout would vary run to run.
  stats.worker_busy_seconds.assign(granted, 0.0);
  stats.worker_chunks.assign(granted, 0);

  std::vector<std::optional<Worker>> slots(
      static_cast<std::size_t>(granted));
  std::atomic<std::size_t> cursor{0};
  // The caller releases what it wrote before the region here and each
  // worker acquires it on entry; each worker releases its work into
  // `finished` and the caller acquires it after the region. These are
  // the orderings libgomp's region start and end already give, made
  // visible to ThreadSanitizer, which cannot see libgomp's barriers.
  std::atomic<bool> opened{false};
  std::atomic<int> finished{0};
  opened.store(true, std::memory_order_release);
  Timer wall;
#pragma omp parallel num_threads(granted)
  {
    (void)opened.load(std::memory_order_acquire);
    const int tid = omp_get_thread_num();
#pragma omp single
    {
      // Realized team is authoritative for every per-worker array; the
      // request (and even the grant) may not be delivered in full.
      const int team = omp_get_num_threads();
      stats.team = team;
      stats.worker_busy_seconds.resize(team);
      stats.worker_chunks.resize(team);
    }
    // (single's implicit barrier: every thread sees the sized arrays)
    CHECK_LT(static_cast<std::size_t>(tid), slots.size())
        << "exec: OpenMP delivered a thread id outside the granted team";
    slots[tid].emplace(make_worker(tid));
    std::uint64_t my_chunks = 0;
    Timer busy;
    for (;;) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      ++my_chunks;
      for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i)
        body(*slots[tid], i);
    }
    stats.worker_busy_seconds[tid] = busy.Seconds();
    stats.worker_chunks[tid] = my_chunks;
    finished.fetch_add(1, std::memory_order_release);
  }
  stats.seconds = wall.Seconds();
  CHECK_EQ(finished.load(std::memory_order_acquire), stats.team);

  for (auto& slot : slots)
    if (slot.has_value()) merge(*slot);

  exec_detail::RecordExecTelemetry(options.telemetry, stats);
  return stats;
}

// Loop without worker state: body(item).
template <typename Body>
ExecStats ParallelFor(std::size_t n, const ExecOptions& options,
                      Body&& body) {
  struct Unit {};
  return ParallelForWorkers(
      n, options, [](int) { return Unit{}; },
      [&body](Unit&, std::size_t i) { body(i); }, [](Unit&) {});
}

// Scalar (or struct) reduction: every worker folds into a private copy of
// `identity` via body(acc, item); partials combine serially with
// combine(result, partial). Deterministic given a deterministic combine
// over any partition (the usual requirement for parallel reductions).
template <typename T, typename Body, typename Combine>
T ParallelReduce(std::size_t n, const ExecOptions& options, T identity,
                 Body&& body, Combine&& combine) {
  T result = identity;
  ParallelForWorkers(
      n, options, [&identity](int) { return identity; },
      [&body](T& acc, std::size_t i) { body(acc, i); },
      [&result, &combine](T& partial) { combine(result, partial); });
  return result;
}

}  // namespace pivotscale

#endif  // PIVOTSCALE_EXEC_EXECUTOR_H_

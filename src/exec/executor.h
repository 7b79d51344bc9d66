// The unified parallel execution layer. Every parallel loop in the tree
// runs through these primitives, on the process-wide helper pool this
// layer owns; the tree uses no OpenMP (tools/lint.py `no-openmp`).
//
// What this layer adds over a bare thread pool:
//   * a team leased from the process-wide ThreadBudget, so concurrent
//     regions (serving workers x counting teams) cannot oversubscribe the
//     machine;
//   * per-worker reduction slots: each worker gets a private accumulator
//     built by a factory and the caller merges them serially after the
//     region — no locks anywhere;
//   * cost-weighted adaptive chunking: an optional per-item cost estimate
//     turns into chunk boundaries of roughly equal estimated work, so a
//     few heavy items do not serialize the tail of the loop;
//   * `exec.*` telemetry: tasks, chunks, per-worker busy-second
//     and chunk-count series, team size, and busy-time CoV.
//
// Sizing is always realized-team authoritative: per-worker arrays are
// sized to the team the region actually ran, never to the request (a
// region that finds the budget taken, or one nested in another region
// that finds the pool's helpers taken, runs with fewer, down to the
// caller alone).
#ifndef PIVOTSCALE_EXEC_EXECUTOR_H_
#define PIVOTSCALE_EXEC_EXECUTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "exec/thread_budget.h"
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

// Runs work(context, tid) once for every tid of a team: tid 0 on the
// calling thread, the others on helpers of the process-wide pool. The
// team is the caller plus up to `granted` - 1 helpers: idle ones, and
// unless the region is nested in another (opened by a worker of a
// running region), new ones started for the rest. Claiming never waits
// for a busy helper, so a nested region may run with fewer, down to the
// caller alone. Returns the realized team size once every claimed helper
// has finished and is idle again, so the caller's next region finds them
// free. `work` must not throw: an exception leaving it ends the program.
int RunTeam(int granted, void (*work)(void* context, int tid) noexcept,
            void* context);

// How many helpers the pool has started so far.
std::size_t PoolHelpers();

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
  // Sized here, on the calling thread, and only shrunk after the region:
  // an allocation on a helper would land in that helper's malloc arena,
  // so the caller's heap layout would depend on the team.
  stats.worker_busy_seconds.assign(granted, 0.0);
  stats.worker_chunks.assign(granted, 0);

  // Workers may write their slot on every item (an argmax, a counter), so
  // each slot gets cache lines of its own: 128 B also keeps the adjacent-
  // line prefetcher from pairing two slots.
  struct alignas(128) Slot {
    std::optional<Worker> worker;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(granted));
  std::atomic<std::size_t> cursor{0};
  auto run_worker = [&](int tid) {
    slots[tid].worker.emplace(make_worker(tid));
    std::uint64_t my_chunks = 0;
    Timer busy;
    for (;;) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      ++my_chunks;
      for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i)
        body(*slots[tid].worker, i);
    }
    stats.worker_busy_seconds[tid] = busy.Seconds();
    stats.worker_chunks[tid] = my_chunks;
  };
  using RunWorker = decltype(run_worker);
  Timer wall;
  stats.team = exec_detail::RunTeam(
      granted,
      [](void* context, int tid) noexcept {
        (*static_cast<RunWorker*>(context))(tid);
      },
      &run_worker);
  stats.seconds = wall.Seconds();
  stats.worker_busy_seconds.resize(stats.team);
  stats.worker_chunks.resize(stats.team);

  for (Slot& slot : slots)
    if (slot.worker.has_value()) merge(*slot.worker);

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

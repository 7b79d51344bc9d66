// The unified parallel execution layer. Every parallel loop in the tree
// runs through these primitives, on the process-wide helper pool this
// layer owns; the tree uses no OpenMP (tools/lint.py `no-openmp`).
//
// What this layer adds over a bare thread pool:
//   * one process-wide thread capacity that every region's team comes
//     out of, so concurrent regions (serving workers x counting teams)
//     cannot oversubscribe the machine;
//   * per-worker reduction slots: each worker gets a private accumulator
//     built by a factory and the caller merges them serially after the
//     region — no locks anywhere;
//   * cost-weighted adaptive chunking: an optional per-item cost estimate
//     turns into chunk boundaries of roughly equal estimated work, so a
//     few heavy items do not serialize the tail of the loop;
//   * `exec.*` telemetry: tasks, chunks, per-worker busy-second
//     and chunk-count series, team size, and busy-time CoV.
//
// A region claims its team before it does anything else, so chunk bounds,
// worker slots and per-worker stats are sized to the team that runs,
// never to the request (a region that finds the capacity taken, or one
// nested in another region that finds the pool's helpers taken, runs with
// fewer, down to the caller alone).
#ifndef PIVOTSCALE_EXEC_EXECUTOR_H_
#define PIVOTSCALE_EXEC_EXECUTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "util/timer.h"

namespace pivotscale {

class TelemetryRegistry;

struct ExecOptions {
  // Requested team size; 0 = every thread the capacity has free. The
  // realized team is what the pool grants (see exec_detail::Team).
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

struct Helper;

// A region's team: the calling thread plus the pool helpers it claimed.
// Claiming applies the grant rule under the pool's one lock:
//   * a request of 0 means every free thread, and requests are capped at
//     ThreadCapacity();
//   * the grant is what is free, but never less than 1: a region never
//     blocks and always runs at least its caller;
//   * the caller claims grant - 1 helpers: idle ones, and unless the
//     region is nested in another (opened by a worker of a running
//     region), new ones started for the rest. Claiming never waits for a
//     busy helper, so a nested region may run with fewer, down to the
//     caller alone.
// The team is what counts as in use, not the grant, so a region holds no
// capacity it could not staff. Under full contention the threads in use
// exceed the capacity by at most one per concurrent region. The
// destructor gives the team back.
class Team {
 public:
  explicit Team(int requested);
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;
  ~Team();

  int size() const { return size_; }

  // Runs work(context, tid) once for every tid in [0, size()): tid 0 on
  // the calling thread, the others on the claimed helpers. Returns once
  // every helper has finished. `work` must not throw: an exception
  // leaving it ends the program. Call at most once.
  void Run(void (*work)(void* context, int tid) noexcept, void* context);

 private:
  Helper* helpers_ = nullptr;  // linked through Helper::next, tid order
  int size_;
};

// ThreadCapacity()'s default, read from the environment on every call:
// the first entry of OMP_NUM_THREADS when it is a thread count in
// [1, kMaxThreadsFlag] (so scripts that size OpenMP programs size this one
// too), otherwise the number of CPUs in the process's affinity mask.
int DefaultThreadCapacity();

// Threads the running regions hold: the sum of their teams.
int ThreadsInUse();

// How many helpers the pool has started so far.
std::size_t PoolHelpers();

}  // namespace exec_detail

// How many threads the process's regions may keep busy at once (see
// exec_detail::Team for the grant rule). Starts at
// exec_detail::DefaultThreadCapacity().
int ThreadCapacity();
// Re-caps it (every binary's --threads; tests). Must be >= 1. Applies
// to regions that claim their team after the call.
void SetThreadCapacity(int capacity);

// The core primitive: runs `body(worker, item)` over items [0, n) on a
// claimed team. Each realized worker owns a private `Worker` built by
// `make_worker(tid)`; after the region, `merge(worker)` runs serially
// (in tid order) over every constructed worker. Workers pull chunks off a
// shared atomic cursor, so a worker finishing early keeps eating chunks.
template <typename MakeWorker, typename Body, typename Merge>
ExecStats ParallelForWorkers(std::size_t n, const ExecOptions& options,
                             MakeWorker&& make_worker, Body&& body,
                             Merge&& merge) {
  using Worker = std::decay_t<decltype(make_worker(0))>;

  exec_detail::Team team(options.num_threads);
  const std::vector<std::size_t> bounds =
      exec_detail::BuildChunkBounds(n, team.size(), options);
  const std::size_t num_chunks = bounds.empty() ? 0 : bounds.size() - 1;

  ExecStats stats;
  stats.team = team.size();
  stats.tasks = n;
  stats.chunks = num_chunks;
  // Sized here, on the calling thread: an allocation on a helper would
  // land in that helper's malloc arena, so the caller's heap layout would
  // depend on the team.
  stats.worker_busy_seconds.assign(stats.team, 0.0);
  stats.worker_chunks.assign(stats.team, 0);

  // Workers may write their slot on every item (an argmax, a counter), so
  // each slot gets cache lines of its own: 128 B also keeps the adjacent-
  // line prefetcher from pairing two slots.
  struct alignas(128) Slot {
    std::optional<Worker> worker;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(stats.team));
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
  team.Run(
      [](void* context, int tid) noexcept {
        (*static_cast<RunWorker*>(context))(tid);
      },
      &run_worker);
  stats.seconds = wall.Seconds();

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

// Fixed worker pool behind a bounded admission queue: the counting half
// of the TCP serving layer, plus the request-line and batch steps that the
// TCP and stdin front ends of pivotscale_served share.
//
// The epoll thread (src/net/event_loop.*) parses request lines and
// submits whole batches here; workers run them through a shared
// QueryEngine and hand the serialized NDJSON response block to a
// completion callback. Admission is TrySubmit, never blocking: when
// `queue_depth` batches are already waiting the submit fails and the
// caller answers every request in the batch with
// {"ok":false,"error":"overloaded"} right away — bounded memory and
// bounded queueing delay instead of an unbounded backlog.
//
// Grouping by graph and deadline checks belong to QueryEngine::RunBatch
// (service/query_engine.h). The stdin front end (ServeStream) skips the
// pool and the queue but runs the same line conversion (ToRequest) and
// batch step (ServeNetBatch), so both front ends answer alike.
//
// Telemetry (when a registry is configured): counters "net.batches",
// "net.requests", "net.timed_out" (requests answered "deadline exceeded")
// and span "net.batch" per executed batch (both front ends); gauge
// "net.queue_depth_high_water" (pool only).
#ifndef PIVOTSCALE_NET_WORKER_POOL_H_
#define PIVOTSCALE_NET_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/framer.h"
#include "service/protocol.h"
#include "service/query_engine.h"

namespace pivotscale {

class TelemetryRegistry;

// Turns one framed line into the request it carries: an oversized line or
// a parse error becomes a request holding its error message. Returns
// nullopt for the blank line, the batch-flush marker.
std::optional<ProtocolRequest> ToRequest(FramedLine&& line,
                                         std::size_t max_line_bytes);

// A flushed batch from one connection.
struct NetBatch {
  std::uint64_t connection_id = 0;
  std::vector<ProtocolRequest> requests;
};

// Runs one batch through the engine and returns the response block: one
// serialized NDJSON line per request, each '\n'-terminated, in request
// order. Unparsed lines answer their error; the parsed queries go to the
// engine as one RunBatch. The worker pool and ServeStream both call it,
// so TCP and stdin answer identically.
std::string ServeNetBatch(QueryEngine& engine,
                          const std::vector<ProtocolRequest>& requests,
                          TelemetryRegistry* telemetry);

// The stdin front end: frames `in` with a ReadLineFramer, collects request
// lines until a blank line or EOF, and answers each such batch on `out`
// through ServeNetBatch, flushing `out` after every batch. Single-client
// and synchronous — no admission queue, so nothing is ever shed.
void ServeStream(std::istream& in, std::ostream& out, QueryEngine& engine,
                 std::size_t max_line_bytes, TelemetryRegistry* telemetry);

struct WorkerPoolOptions {
  std::size_t queue_depth = 64;  // max batches waiting (not running)
  // Fixed worker-thread count. Clamped at construction to
  // [1, ThreadCapacity()] so serving concurrency and per-run counting
  // threads draw from one machine-wide capacity (see exec/executor.h and
  // docs/parallelism.md).
  int workers = 2;
  TelemetryRegistry* telemetry = nullptr;  // not owned; may be null
};

class WorkerPool {
 public:
  // `on_complete(connection_id, response_block)` fires on a worker thread
  // once per executed batch. Both `engine` and the callback must outlive
  // the pool.
  WorkerPool(QueryEngine* engine, WorkerPoolOptions options,
             std::function<void(std::uint64_t, std::string)> on_complete);

  // Drains and joins.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Admits a batch unless the queue is full; returns false (batch
  // untouched aside from the move) when the caller must shed it.
  bool TrySubmit(NetBatch&& batch);

  // Stops admission, waits for every queued batch to finish (completions
  // still fire), and joins the workers. Idempotent.
  void Drain();

  // Deepest the queue ever got (ops / tests).
  std::size_t queue_high_water() const;

  // Worker threads running: options.workers after the capacity clamp.
  int workers() const { return options_.workers; }

 private:
  void WorkerMain();

  QueryEngine* engine_;
  WorkerPoolOptions options_;
  std::function<void(std::uint64_t, std::string)> on_complete_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<NetBatch> queue_;
  std::size_t high_water_ = 0;
  bool draining_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_NET_WORKER_POOL_H_

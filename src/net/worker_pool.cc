#include "net/worker_pool.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "exec/executor.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace pivotscale {

std::optional<ProtocolRequest> ToRequest(FramedLine&& line,
                                         std::size_t max_line_bytes) {
  ProtocolRequest req;
  if (line.oversized) {
    req.error = "line exceeds " + std::to_string(max_line_bytes) + " bytes";
    return req;
  }
  if (line.text.empty()) return std::nullopt;
  try {
    req = ParseRequest(line.text);
  } catch (const std::exception& e) {
    req.error = e.what();
  }
  return req;
}

std::string ServeNetBatch(QueryEngine& engine,
                          const std::vector<ProtocolRequest>& requests,
                          TelemetryRegistry* telemetry) {
  TelemetryRegistry::ScopedSpan span(telemetry, "net.batch");
  std::vector<ServiceQuery> queries;
  for (const ProtocolRequest& req : requests)
    if (req.error.empty()) queries.push_back(req.query);
  const std::vector<ServiceResult> results = engine.RunBatch(queries);
  // The engine's contract: results align positionally with the queries.
  CHECK_EQ(results.size(), queries.size());

  std::uint64_t timed_out = 0;
  std::string block;
  std::size_t next = 0;
  for (const ProtocolRequest& req : requests) {
    if (!req.error.empty()) {
      block += SerializeError(req.id, req.error);
    } else {
      const ServiceResult& result = results[next++];
      if (result.deadline_exceeded) ++timed_out;
      block += SerializeResponse(req.id, result);
    }
    block += '\n';
  }

  if (telemetry != nullptr) {
    telemetry->AddCounter("net.batches", 1);
    telemetry->AddCounter("net.requests", requests.size());
    if (timed_out > 0) telemetry->AddCounter("net.timed_out", timed_out);
  }
  return block;
}

void ServeStream(std::istream& in, std::ostream& out, QueryEngine& engine,
                 std::size_t max_line_bytes, TelemetryRegistry* telemetry) {
  ReadLineFramer framer(max_line_bytes);
  std::vector<ProtocolRequest> pending;
  const auto flush = [&] {
    if (pending.empty()) return;
    out << ServeNetBatch(engine, pending, telemetry);
    out.flush();
    pending.clear();
  };
  const auto process = [&](FramedLine&& line) {
    std::optional<ProtocolRequest> req =
        ToRequest(std::move(line), max_line_bytes);
    if (req)
      pending.push_back(std::move(*req));
    else
      flush();
  };

  // Take whatever the stream has buffered (at least one byte, blocking
  // only for that one), so a client on a pipe gets each blank-line batch
  // answered without first filling a fixed-size read.
  std::streambuf& source = *in.rdbuf();
  char buf[16384];
  std::vector<FramedLine> lines;
  while (source.sgetc() != std::char_traits<char>::eof()) {
    const std::streamsize want = std::clamp<std::streamsize>(
        source.in_avail(), 1, static_cast<std::streamsize>(sizeof(buf)));
    const std::streamsize got = source.sgetn(buf, want);
    lines.clear();
    framer.Feed(buf, static_cast<std::size_t>(got), &lines);
    for (FramedLine& line : lines) process(std::move(line));
  }
  FramedLine last;
  if (framer.Finish(&last)) process(std::move(last));
  flush();
}

WorkerPool::WorkerPool(
    QueryEngine* engine, WorkerPoolOptions options,
    std::function<void(std::uint64_t, std::string)> on_complete)
    : engine_(engine),
      options_(options),
      on_complete_(std::move(on_complete)) {
  CHECK(engine_ != nullptr) << "WorkerPool needs a QueryEngine";
  CHECK(on_complete_) << "WorkerPool needs a completion callback";
  // Serving concurrency draws from the same machine as counting: cap the
  // worker count at the exec layer's thread capacity so `workers` x
  // counting threads cannot be provisioned past the core count. Each
  // worker's counting runs then claim their teams from that capacity, and
  // the teams shrink when several workers count at once.
  options_.workers = std::clamp(options_.workers, 1, ThreadCapacity());
  options_.queue_depth = std::max<std::size_t>(1, options_.queue_depth);
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w)
    workers_.emplace_back([this] { WorkerMain(); });
}

WorkerPool::~WorkerPool() { Drain(); }

bool WorkerPool::TrySubmit(NetBatch&& batch) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ || queue_.size() >= options_.queue_depth) return false;
    queue_.push_back(std::move(batch));
    DCHECK_LE(queue_.size(), options_.queue_depth);
    high_water_ = std::max(high_water_, queue_.size());
    if (options_.telemetry != nullptr)
      options_.telemetry->SetGauge("net.queue_depth_high_water",
                                   static_cast<double>(high_water_));
  }
  work_ready_.notify_one();
  return true;
}

void WorkerPool::Drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
}

std::size_t WorkerPool::queue_high_water() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return high_water_;
}

void WorkerPool::WorkerMain() {
  for (;;) {
    NetBatch batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock,
                       [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // draining and nothing left
      batch = std::move(queue_.front());
      queue_.pop_front();
    }
    std::string block =
        ServeNetBatch(*engine_, batch.requests, options_.telemetry);
    on_complete_(batch.connection_id, std::move(block));
  }
}

}  // namespace pivotscale

#include "net/worker_pool.h"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>

#include "exec/executor.h"
#include "service/protocol.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace pivotscale {

std::optional<NetRequest> ToNetRequest(FramedLine&& line,
                                       std::size_t max_line_bytes) {
  NetRequest req;
  if (line.oversized) {
    req.parse_error =
        "line exceeds " + std::to_string(max_line_bytes) + " bytes";
    return req;
  }
  if (line.text.empty()) return std::nullopt;
  try {
    ProtocolRequest parsed = ParseRequest(line.text);
    req.parsed = true;
    req.id = parsed.id;
    req.query = std::move(parsed.query);
    if (parsed.deadline_ms >= 0)
      req.deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(parsed.deadline_ms);
  } catch (const std::exception& e) {
    req.parse_error = e.what();
  }
  return req;
}

std::string ServeNetBatch(QueryEngine& engine,
                          std::vector<NetRequest>& requests,
                          TelemetryRegistry* telemetry) {
  TelemetryRegistry::ScopedSpan span(telemetry, "net.batch");
  std::vector<std::string> responses(requests.size());

  // Group parseable requests by artifact, preserving first-appearance
  // order so the per-group deadline checks walk the batch front to back.
  std::map<std::string, std::vector<std::size_t>> by_graph;
  std::vector<std::string> group_order;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const NetRequest& req = requests[i];
    if (!req.parsed) {
      responses[i] = SerializeError(req.id, req.parse_error);
      continue;
    }
    auto [it, inserted] = by_graph.try_emplace(req.query.graph);
    if (inserted) group_order.push_back(req.query.graph);
    it->second.push_back(i);
  }

  std::uint64_t timed_out = 0;
  for (const std::string& graph : group_order) {
    const std::vector<std::size_t>& members = by_graph[graph];
    // The batch-group boundary: everything already past its deadline is
    // answered without counting; the rest run as one deduplicated group.
    const auto now = std::chrono::steady_clock::now();
    std::vector<ServiceQuery> live;
    std::vector<std::size_t> live_indices;
    live.reserve(members.size());
    for (std::size_t i : members) {
      if (requests[i].deadline <= now) {
        responses[i] = SerializeError(requests[i].id, "deadline exceeded");
        ++timed_out;
      } else {
        live.push_back(requests[i].query);
        live_indices.push_back(i);
      }
    }
    if (live.empty()) continue;
    const std::vector<ServiceResult> results = engine.RunBatch(live);
    // The engine's contract: results align positionally with the queries.
    CHECK_EQ(results.size(), live_indices.size());
    for (std::size_t j = 0; j < live_indices.size(); ++j)
      responses[live_indices[j]] =
          SerializeResponse(requests[live_indices[j]].id, results[j]);
  }

  if (telemetry != nullptr) {
    telemetry->AddCounter("net.batches", 1);
    telemetry->AddCounter("net.requests", requests.size());
    if (timed_out > 0) telemetry->AddCounter("net.timed_out", timed_out);
  }

  std::string block;
  for (std::string& line : responses) {
    block += line;
    block += '\n';
  }
  return block;
}

void ServeStream(std::istream& in, std::ostream& out, QueryEngine& engine,
                 std::size_t max_line_bytes, TelemetryRegistry* telemetry) {
  ReadLineFramer framer(max_line_bytes);
  std::vector<NetRequest> pending;
  const auto flush = [&] {
    if (pending.empty()) return;
    out << ServeNetBatch(engine, pending, telemetry);
    out.flush();
    pending.clear();
  };
  const auto process = [&](FramedLine&& line) {
    std::optional<NetRequest> req =
        ToNetRequest(std::move(line), max_line_bytes);
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

// Epoll-based TCP front end for the clique-query service.
//
// One I/O thread owns everything socket-shaped: a non-blocking listener,
// per-connection read/write buffers with NDJSON line framing
// (net/framer.*, protocol of src/service/protocol.*), and an eventfd the
// worker pool uses to hand finished response blocks back. Counting never
// happens on the I/O thread — a blank line (or read-side EOF) flushes the
// connection's pending lines as one NetBatch into the bounded admission
// queue (net/worker_pool.*), and a full queue sheds the batch with
// immediate {"ok":false,"error":"overloaded"} lines instead of buffering.
//
// Robustness model:
//  * accept beyond --max-connections: the extra socket is closed right
//    away (counted as net.rejected) rather than admitted;
//  * oversized request lines are discarded by the framer and answered
//    with a per-line error — client memory cannot grow the server;
//  * SIGPIPE is ignored (writes use MSG_NOSIGNAL) and half-closed
//    connections flush their final batch, get their responses, and are
//    reaped once the write buffer empties;
//  * RequestDrain() — wired to SIGTERM/SIGINT by pivotscale_served — is
//    async-signal-safe: stop accepting, stop reading, finish every
//    in-flight batch, flush every write buffer, then Run() returns.
//
// Telemetry: counters "net.accepted", "net.rejected", "net.shed",
// "net.closed" and the "net.active" gauge, plus the worker-pool records
// ("net.batches", "net.requests", "net.timed_out",
// "net.queue_depth_high_water", "net.batch" spans).
#ifndef PIVOTSCALE_NET_EVENT_LOOP_H_
#define PIVOTSCALE_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "net/framer.h"
#include "net/worker_pool.h"
#include "service/query_engine.h"

namespace pivotscale {

struct NetServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;     // 0 = ephemeral; see port() after Start()
  int max_connections = 1024;
  std::size_t queue_depth = 64;
  int workers = 2;
  std::size_t max_line_bytes = ReadLineFramer::kDefaultMaxLineBytes;
  TelemetryRegistry* telemetry = nullptr;  // not owned; may be null
};

class NetServer {
 public:
  // `engine` must outlive the server.
  NetServer(QueryEngine* engine, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds, listens, and spawns the worker pool; throws std::runtime_error
  // on socket failures. After Start(), port() returns the bound port.
  void Start();
  std::uint16_t port() const { return port_; }
  // Worker threads the pool runs (NetServerOptions::workers after the
  // clamp to the thread capacity). Valid after Start().
  int workers() const { return pool_->workers(); }

  // Runs the event loop on the calling thread until a drain completes.
  void Run();

  // Triggers graceful drain; safe from any thread and from a signal
  // handler (atomic store + eventfd write only).
  void RequestDrain();

 private:
  struct Connection {
    int fd = -1;
    ReadLineFramer framer;
    std::vector<ProtocolRequest> pending;  // lines awaiting the flush
    std::string out;                  // unwritten response bytes
    std::size_t out_offset = 0;
    std::uint64_t inflight = 0;       // batches in the pool
    bool read_closed = false;         // peer EOF or draining
    bool want_write = false;          // EPOLLOUT armed
    explicit Connection(std::size_t max_line_bytes)
        : framer(max_line_bytes) {}
  };

  void HandleAccept();
  void HandleReadable(std::uint64_t conn_id);
  void HandleWritable(std::uint64_t conn_id);
  void HandleCompletions();
  void ProcessLine(std::uint64_t conn_id, Connection& conn,
                   FramedLine&& line);
  void FlushBatch(std::uint64_t conn_id, Connection& conn);
  void TryWrite(std::uint64_t conn_id, Connection& conn);
  void CloseIfFinished(std::uint64_t conn_id, Connection& conn);
  void DestroyConnection(std::uint64_t conn_id);
  void BeginDrain();
  void UpdateEpoll(Connection& conn, std::uint64_t conn_id);
  void AddCounter(const char* name, std::uint64_t delta);
  void SetActiveGauge();

  QueryEngine* engine_;
  NetServerOptions options_;
  std::unique_ptr<WorkerPool> pool_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t port_ = 0;

  std::uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wake eventfd
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;

  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;

  std::mutex completions_mutex_;
  std::vector<std::pair<std::uint64_t, std::string>> completions_;
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_NET_EVENT_LOOP_H_

#include "net/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "service/protocol.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace pivotscale {

namespace {

constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kWakeId = 1;

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

}  // namespace

NetServer::NetServer(QueryEngine* engine, NetServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

NetServer::~NetServer() {
  if (pool_ != nullptr) pool_->Drain();
  for (auto& [id, conn] : connections_)
    if (conn->fd >= 0) ::close(conn->fd);
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void NetServer::Start() {
  CHECK(engine_ != nullptr) << "NetServer needs a QueryEngine";
  CHECK(listen_fd_ < 0) << "NetServer::Start called twice";
  // Dead clients must surface as EPIPE from send(), not kill the process.
  ::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                  &addr.sin_addr) != 1)
    throw std::runtime_error("invalid bind address " +
                             options_.bind_address);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0)
    ThrowErrno("bind");
  if (::listen(listen_fd_, 128) < 0) ThrowErrno("listen");

  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0)
    ThrowErrno("getsockname");
  port_ = ntohs(addr.sin_port);

  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) ThrowErrno("eventfd");

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) ThrowErrno("epoll_create1");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0)
    ThrowErrno("epoll_ctl(listener)");
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0)
    ThrowErrno("epoll_ctl(eventfd)");

  WorkerPoolOptions pool_options;
  pool_options.queue_depth = options_.queue_depth;
  pool_options.workers = options_.workers;
  pool_options.telemetry = options_.telemetry;
  pool_ = std::make_unique<WorkerPool>(
      engine_, pool_options,
      [this](std::uint64_t conn_id, std::string block) {
        {
          std::lock_guard<std::mutex> lock(completions_mutex_);
          completions_.emplace_back(conn_id, std::move(block));
        }
        const std::uint64_t tick = 1;
        [[maybe_unused]] ssize_t n =
            ::write(wake_fd_, &tick, sizeof(tick));
      });
}

void NetServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const std::uint64_t tick = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &tick, sizeof(tick));
  }
}

void NetServer::Run() {
  if (epoll_fd_ < 0)
    throw std::logic_error("NetServer::Run before Start");
  epoll_event events[64];
  for (;;) {
    if (drain_requested_.load(std::memory_order_acquire) && !draining_)
      BeginDrain();
    HandleCompletions();
    if (draining_ && connections_.empty()) break;

    const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kListenerId) {
        HandleAccept();
      } else if (id == kWakeId) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
      } else {
        if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))
          HandleReadable(id);
        if (events[i].events & EPOLLOUT) HandleWritable(id);
      }
    }
  }
  pool_->Drain();
}

void NetServer::BeginDrain() {
  draining_ = true;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Stop reading everywhere; lines never admitted to the queue are
  // dropped, in-flight batches and buffered responses still flush.
  std::vector<std::uint64_t> ids;
  ids.reserve(connections_.size());
  for (auto& [id, conn] : connections_) ids.push_back(id);
  for (std::uint64_t id : ids) {
    auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    Connection& conn = *it->second;
    conn.read_closed = true;
    conn.pending.clear();
    UpdateEpoll(conn, id);
    CloseIfFinished(id, conn);
  }
}

void NetServer::HandleAccept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNABORTED)
        return;
      return;  // transient accept failure; the loop keeps serving
    }
    if (draining_ ||
        connections_.size() >=
            static_cast<std::size_t>(options_.max_connections)) {
      ::close(fd);
      AddCounter("net.rejected", 1);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(options_.max_line_bytes);
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    connections_.emplace(id, std::move(conn));
    AddCounter("net.accepted", 1);
    SetActiveGauge();
  }
}

void NetServer::HandleReadable(std::uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  if (conn.read_closed) return;

  char buf[16384];
  std::vector<FramedLine> lines;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      lines.clear();
      conn.framer.Feed(buf, static_cast<std::size_t>(n), &lines);
      for (FramedLine& line : lines) {
        ProcessLine(conn_id, conn, std::move(line));
        if (connections_.find(conn_id) == connections_.end()) return;
      }
      continue;
    }
    if (n == 0) {
      // Peer EOF (including shutdown(SHUT_WR) half-close): a final
      // unterminated line still counts, and EOF flushes the batch just
      // like stdin mode (ServeStream).
      FramedLine last;
      if (conn.framer.Finish(&last))
        ProcessLine(conn_id, conn, std::move(last));
      if (connections_.find(conn_id) == connections_.end()) return;
      FlushBatch(conn_id, conn);
      if (connections_.find(conn_id) == connections_.end()) return;
      conn.read_closed = true;
      UpdateEpoll(conn, conn_id);
      CloseIfFinished(conn_id, conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    DestroyConnection(conn_id);  // ECONNRESET and friends
    return;
  }
}

void NetServer::ProcessLine(std::uint64_t conn_id, Connection& conn,
                            FramedLine&& line) {
  std::optional<ProtocolRequest> req =
      ToRequest(std::move(line), options_.max_line_bytes);
  if (req)
    conn.pending.push_back(std::move(*req));
  else
    FlushBatch(conn_id, conn);
}

void NetServer::FlushBatch(std::uint64_t conn_id, Connection& conn) {
  if (conn.pending.empty()) return;
  NetBatch batch;
  batch.connection_id = conn_id;
  batch.requests = std::move(conn.pending);
  conn.pending.clear();
  if (pool_->TrySubmit(std::move(batch))) {
    ++conn.inflight;
    return;
  }
  // Admission queue full: shed the whole batch with immediate errors
  // instead of queueing it — bounded memory, bounded latency.
  AddCounter("net.shed", batch.requests.size());
  for (const ProtocolRequest& req : batch.requests) {
    conn.out += SerializeError(req.id, "overloaded");
    conn.out += '\n';
  }
  TryWrite(conn_id, conn);
}

void NetServer::HandleWritable(std::uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  TryWrite(conn_id, conn);
  it = connections_.find(conn_id);
  if (it != connections_.end()) CloseIfFinished(conn_id, *it->second);
}

void NetServer::TryWrite(std::uint64_t conn_id, Connection& conn) {
  DCHECK_LE(conn.out_offset, conn.out.size());
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_offset,
               conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        UpdateEpoll(conn, conn_id);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    DestroyConnection(conn_id);  // EPIPE / ECONNRESET: peer is gone
    return;
  }
  conn.out.clear();
  conn.out_offset = 0;
  if (conn.want_write) {
    conn.want_write = false;
    UpdateEpoll(conn, conn_id);
  }
}

void NetServer::HandleCompletions() {
  std::vector<std::pair<std::uint64_t, std::string>> done;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    done.swap(completions_);
  }
  for (auto& [conn_id, block] : done) {
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) continue;  // connection died mid-batch
    Connection& conn = *it->second;
    // A completion can only come from a batch this connection submitted;
    // an underflow means the inflight bookkeeping double-counted and the
    // drain logic would close a connection with work still pending.
    CHECK_GT(conn.inflight, 0)
        << "NetServer: completion for connection " << conn_id
        << " with no inflight batch";
    --conn.inflight;
    conn.out += block;
    TryWrite(conn_id, conn);
    it = connections_.find(conn_id);
    if (it != connections_.end()) CloseIfFinished(conn_id, *it->second);
  }
}

void NetServer::CloseIfFinished(std::uint64_t conn_id, Connection& conn) {
  if (conn.read_closed && conn.inflight == 0 && conn.pending.empty() &&
      conn.out_offset >= conn.out.size())
    DestroyConnection(conn_id);
}

void NetServer::DestroyConnection(std::uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  connections_.erase(it);
  AddCounter("net.closed", 1);
  SetActiveGauge();
}

void NetServer::UpdateEpoll(Connection& conn, std::uint64_t conn_id) {
  epoll_event ev{};
  ev.events = (conn.read_closed ? 0u : static_cast<unsigned>(EPOLLIN)) |
              (conn.want_write ? static_cast<unsigned>(EPOLLOUT) : 0u);
  ev.data.u64 = conn_id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void NetServer::AddCounter(const char* name, std::uint64_t delta) {
  if (options_.telemetry != nullptr)
    options_.telemetry->AddCounter(name, delta);
}

void NetServer::SetActiveGauge() {
  if (options_.telemetry != nullptr)
    options_.telemetry->SetGauge("net.active",
                                 static_cast<double>(connections_.size()));
}

}  // namespace pivotscale

// Load generator for pivotscale_served: N concurrent connections replay
// a mixed-k request stream and the report answers the question single-run
// wall clocks cannot — what are the tail latencies, and does the server
// shed rather than queue under overload?
//
// Each connection sends --batches batches of --batch-size requests
// (k cycling through --ks, graph cycling through the comma-separated
// --graph list), reads the responses, and times every request from batch
// send to response arrival. The aggregate report is one JSON object:
// throughput, p50/p95/p99/max latency, ok/shed/timed-out/error counts,
// and the count observed per k with a per-k consistency flag (so a smoke
// script can diff served counts against standalone pivotscale_cli).
//
// Usage:
//   pivotscale_loadgen --port P --graph g.psx[,h.psx]
//                      [--host 127.0.0.1] [--connections 8]
//                      [--batches 16] [--batch-size 4]
//                      [--ks 3,4,5,6,7,8] [--deadline-ms N] [--all-k]
//                      [--json report.json] [--version]
//
// Run bare (no --port), prints the usage banner and exits so the CI
// examples loop terminates. Exit code 0 when every connection completed
// (shed/timeout responses are expected outcomes, not failures).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/framer.h"
#include "util/atomic_file.h"
#include "util/cli.h"
#include "util/json_writer.h"
#include "util/version.h"

using namespace pivotscale;

namespace {

constexpr char kUsage[] =
    "pivotscale_loadgen: concurrent load generator for pivotscale_served\n"
    "  pivotscale_loadgen --port P --graph g.psx[,h.psx]\n"
    "                     [--host 127.0.0.1] [--connections 8]\n"
    "                     [--batches 16] [--batch-size 4]\n"
    "                     [--ks 3,4,5,6,7,8] [--deadline-ms N] [--all-k]\n"
    "                     [--json report.json]\n"
    "Replays a mixed-k NDJSON request stream over N concurrent\n"
    "connections and reports throughput, p50/p95/p99 latency, and\n"
    "shed/timeout counts as one JSON object. See docs/serving.md.\n";

struct WorkerStats {
  std::vector<double> latencies_ms;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t errors = 0;       // non-shed, non-timeout failures
  bool connect_failed = false;
  std::string failure;
  // Observed count string per k (ok responses only) + consistency flag.
  std::map<std::uint64_t, std::string> count_by_k;
  std::map<std::uint64_t, bool> consistent_by_k;
};

int ConnectWithRetry(const std::string& host, std::uint16_t port,
                     std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid host " + host;
    return -1;
  }
  for (int attempt = 0; attempt < 50; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      timeval timeout{30, 0};  // a stuck server must not hang the run
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                   sizeof(timeout));
      return fd;
    }
    ::close(fd);
    if (errno != ECONNREFUSED) {
      *error = std::string("connect: ") + std::strerror(errno);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  *error = "connect: connection refused (server not up after 5s)";
  return -1;
}

// Classifies one response line into the stats; latency is recorded by the
// caller. Returns false on an unparseable response (counted as error).
void RecordResponse(const std::string& line, WorkerStats* stats) {
  JsonValue doc;
  try {
    doc = ParseJson(line);
  } catch (const std::exception&) {
    ++stats->errors;
    return;
  }
  const JsonValue* ok = doc.Find("ok");
  if (ok == nullptr) {
    ++stats->errors;
    return;
  }
  if (ok->bool_value) {
    ++stats->ok;
    const JsonValue* k = doc.Find("k");
    const JsonValue* count = doc.Find("count");
    if (k != nullptr && count != nullptr) {
      const std::uint64_t kk = static_cast<std::uint64_t>(k->number);
      auto [it, inserted] =
          stats->count_by_k.emplace(kk, count->string_value);
      if (inserted)
        stats->consistent_by_k[kk] = true;
      else if (it->second != count->string_value)
        stats->consistent_by_k[kk] = false;
    }
    return;
  }
  const JsonValue* error = doc.Find("error");
  const std::string message =
      error != nullptr ? error->string_value : "";
  if (message == "overloaded")
    ++stats->shed;
  else if (message == "deadline exceeded")
    ++stats->timed_out;
  else
    ++stats->errors;
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    args.RejectUnknown({"port", "host", "graph", "connections", "batches",
                        "batch-size", "ks", "deadline-ms", "all-k",
                        "json", "version", "help"});
    if (args.GetBool("version", false)) {
      std::cout << "pivotscale_loadgen " << VersionString() << "\n";
      return 0;
    }
    if (args.GetBool("help", false) || !args.Has("port")) {
      std::cout << kUsage;
      return 0;
    }

    const std::string host = args.GetString("host", "127.0.0.1");
    const std::uint16_t port =
        static_cast<std::uint16_t>(args.GetIntInRange("port", 0, 0, 65535));
    const int connections = args.GetThreads("connections", 8);
    const auto batches = static_cast<int>(
        args.GetIntInRange("batches", 16, 1, std::numeric_limits<int>::max()));
    const auto batch_size = static_cast<int>(args.GetIntInRange(
        "batch-size", 4, 1, std::numeric_limits<int>::max()));
    const std::int64_t deadline_ms = args.GetInt("deadline-ms", -1);
    const bool all_k = args.GetBool("all-k", false);
    const std::vector<std::int64_t> ks =
        args.GetIntList("ks", {3, 4, 5, 6, 7, 8});

    std::vector<std::string> graphs;
    std::stringstream graph_list(args.GetString("graph", ""));
    std::string graph;
    while (std::getline(graph_list, graph, ','))
      if (!graph.empty()) graphs.push_back(graph);
    if (graphs.empty())
      throw std::runtime_error(
          "--graph is required (a .psx artifact path the server can "
          "load; comma-separate to cycle several)");

    std::vector<WorkerStats> stats(
        static_cast<std::size_t>(connections));
    std::vector<std::thread> threads;
    const auto run_start = std::chrono::steady_clock::now();

    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        WorkerStats& s = stats[static_cast<std::size_t>(c)];
        std::string error;
        const int fd = ConnectWithRetry(host, port, &error);
        if (fd < 0) {
          s.connect_failed = true;
          s.failure = error;
          return;
        }
        ReadLineFramer framer;
        std::int64_t next_id =
            static_cast<std::int64_t>(c) * 1'000'000;
        for (int b = 0; b < batches; ++b) {
          // Build one batch: k cycles through --ks, graph through the
          // artifact list (per batch, so dedup still happens inside).
          std::string payload;
          for (int r = 0; r < batch_size; ++r) {
            const std::size_t mix =
                static_cast<std::size_t>(b * batch_size + r);
            JsonWriter w;
            w.BeginObject();
            w.Key("id");
            w.Value(next_id++);
            w.Key("graph");
            w.Value(graphs[static_cast<std::size_t>(b) % graphs.size()]);
            if (all_k) {
              w.Key("all_k");
              w.Value(true);
            } else {
              w.Key("k");
              w.Value(ks[mix % ks.size()]);
            }
            if (deadline_ms >= 0) {
              w.Key("deadline_ms");
              w.Value(deadline_ms);
            }
            w.EndObject();
            payload += w.str();
            payload += '\n';
          }
          payload += '\n';  // blank line: flush as one batch

          const auto sent_at = std::chrono::steady_clock::now();
          std::size_t off = 0;
          while (off < payload.size()) {
            const ssize_t n = ::send(fd, payload.data() + off,
                                     payload.size() - off, MSG_NOSIGNAL);
            if (n <= 0) {
              s.failure = "send failed mid-run";
              ::close(fd);
              return;
            }
            off += static_cast<std::size_t>(n);
          }

          // One response line per request, in order.
          int received = 0;
          std::vector<FramedLine> lines;
          char buf[16384];
          while (received < batch_size) {
            const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n <= 0) {
              s.failure = "connection lost before all responses";
              ::close(fd);
              return;
            }
            lines.clear();
            framer.Feed(buf, static_cast<std::size_t>(n), &lines);
            const auto now = std::chrono::steady_clock::now();
            const double ms =
                std::chrono::duration<double, std::milli>(now - sent_at)
                    .count();
            for (const FramedLine& line : lines) {
              if (line.text.empty()) continue;
              s.latencies_ms.push_back(ms);
              RecordResponse(line.text, &s);
              ++received;
            }
          }
        }
        ::close(fd);
      });
    }
    for (std::thread& t : threads) t.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_start)
            .count();

    // Aggregate.
    std::vector<double> latencies;
    std::uint64_t ok = 0, shed = 0, timed_out = 0, errors = 0;
    int failed_connections = 0;
    std::map<std::uint64_t, std::string> count_by_k;
    std::map<std::uint64_t, bool> consistent_by_k;
    for (const WorkerStats& s : stats) {
      latencies.insert(latencies.end(), s.latencies_ms.begin(),
                       s.latencies_ms.end());
      ok += s.ok;
      shed += s.shed;
      timed_out += s.timed_out;
      errors += s.errors;
      if (s.connect_failed || !s.failure.empty()) {
        ++failed_connections;
        std::cerr << "loadgen: connection failure: " << s.failure << "\n";
      }
      for (const auto& [k, count] : s.count_by_k) {
        auto [it, inserted] = count_by_k.emplace(k, count);
        bool consistent = s.consistent_by_k.at(k);
        if (!inserted && it->second != count) consistent = false;
        auto [cit, cinserted] = consistent_by_k.emplace(k, consistent);
        if (!cinserted) cit->second = cit->second && consistent;
      }
    }
    std::sort(latencies.begin(), latencies.end());
    const std::uint64_t responses = ok + shed + timed_out + errors;

    JsonWriter w;
    w.BeginObject();
    w.Key("schema");
    w.Value("pivotscale.loadgen_report");
    w.Key("version");
    w.Value(std::uint64_t{1});
    w.Key("connections");
    w.Value(static_cast<std::int64_t>(connections));
    w.Key("failed_connections");
    w.Value(static_cast<std::int64_t>(failed_connections));
    w.Key("batches_per_connection");
    w.Value(static_cast<std::int64_t>(batches));
    w.Key("batch_size");
    w.Value(static_cast<std::int64_t>(batch_size));
    w.Key("responses");
    w.Value(responses);
    w.Key("ok");
    w.Value(ok);
    w.Key("shed");
    w.Value(shed);
    w.Key("timed_out");
    w.Value(timed_out);
    w.Key("errors");
    w.Value(errors);
    w.Key("seconds");
    w.Value(seconds);
    w.Key("throughput_rps");
    w.Value(seconds > 0 ? static_cast<double>(responses) / seconds : 0);
    w.Key("latency_ms");
    w.BeginObject();
    w.Key("p50");
    w.Value(Percentile(latencies, 0.50));
    w.Key("p95");
    w.Value(Percentile(latencies, 0.95));
    w.Key("p99");
    w.Value(Percentile(latencies, 0.99));
    w.Key("max");
    w.Value(latencies.empty() ? 0 : latencies.back());
    w.EndObject();
    w.Key("counts");
    w.BeginArray();
    for (const auto& [k, count] : count_by_k) {
      w.BeginObject();
      w.Key("k");
      w.Value(k);
      w.Key("count");
      w.Value(count);
      w.Key("consistent");
      w.Value(consistent_by_k.at(k));
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();

    const std::string report = w.str();
    const std::string json_path = args.GetPath("json", "");
    if (!json_path.empty()) {
      WriteFileAtomic(json_path, report + "\n");
      std::cerr << "loadgen report written to " << json_path << "\n";
    }
    std::cout << report << std::endl;

    return failed_connections == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

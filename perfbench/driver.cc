// Driver of the repository benchmark (perfbench/README.md): runs one
// workload and prints one result line.
//
//   perfbench_driver --workload lj-k8|fr-k8|serve-hot|serve-cold
//                    --seed N --seconds S --trace 0|1
//                    --served PATH --work-dir DIR [--spans-out FILE]
//                    [--smoke] [--corrupt-reference]
//
// Every number is measured from outside the program: this process times
// its own calls into the library's public functions and the NDJSON request
// batches it sends to a pivotscale_served child. stdout carries an
// environment stamp line and, last, the result line
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is 0 only when every checked output was exact
// and every workload guard held; the reasons otherwise go to stderr.
//
// --smoke shrinks every input to a tiny scale and checks batch counts
// against a reference computed here instead of the full-scale constants.
// --corrupt-reference adds one to every reference count, so a run with it
// must fail: the self-test of the exact-output gate.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <omp.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "graph/builder.h"
#include "graph/dag.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "net/framer.h"
#include "order/heuristic.h"
#include "order/ordering.h"
#include "pivot/count.h"
#include "pivot/pivotscale.h"
#include "pivot/subgraph_remap.h"
#include "service/query_engine.h"
#include "store/artifact.h"
#include "util/cli.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/uint128.h"

extern char** environ;

using namespace pivotscale;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kCliqueK = 8;
constexpr int kThreads = 4;     // team per counting run, and the guard
constexpr int kSetupReps = 3;   // set-ups per run; setup_s is their median
constexpr std::uint32_t kTopN = 10;
constexpr std::uint32_t kPerVertexKs[] = {4, 6, 8};
// The k a batch workload's traced run serves its own artifact at: small,
// so the one counting run the server needs stays short.
constexpr std::uint32_t kServedK = 3;
// serve-cold keeps only the newest artifact resident, so a batch hits the
// cache only when its graph is the one the other connection just loaded.
constexpr double kColdCacheHitCeiling = 0.35;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------------ report

// The run's result line, plus the reasons it is not correct.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      Problem("metric " + name + " is not finite");
      value = 0;
    }
    metrics_.push_back({name, value, unit});
  }
  void Attempt(std::uint64_t n = 1) { attempted_ += n; }
  // Failed operations: a wrong output, an error, a shed or timed-out
  // response, or a lost connection.
  void FailOps(std::uint64_t n, const std::string& why) {
    failed_ += n;
    Problem(why);
  }
  // A run-level failure, such as a tripped workload guard.
  void Problem(const std::string& why) {
    correct_ = false;
    if (problems_.size() < 20) problems_.push_back(why);
  }
  bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }
  const std::vector<std::string>& problems() const { return problems_; }

  std::string Json() const {
    JsonWriter w;
    w.BeginObject();
    w.Key("correct");
    w.Value(correct());
    w.Key("attempted");
    w.Value(attempted_);
    w.Key("failed");
    w.Value(failed_);
    w.Key("metrics");
    w.BeginObject();
    for (const Entry& e : metrics_) {
      w.Key(e.name);
      w.BeginObject();
      w.Key("value");
      w.Value(e.value);
      w.Key("unit");
      w.Value(e.unit);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    return w.str();
  }

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> problems_;
};

// ------------------------------------------------------------------- spans

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: top level
  std::string name;
  double start_s = 0;  // since the log was created
  double end_s = 0;
};

// The benchmark's own spans around each library call and each request,
// kept in memory and written out when a traced run ends. A disabled log
// records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }
  std::uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  double Since(Clock::time_point t) const { return SecondsBetween(origin_, t); }

  // Records one finished span; `id` 0 allocates a fresh one.
  std::uint64_t Record(const std::string& name, std::uint64_t parent,
                       Clock::time_point start, Clock::time_point end,
                       std::uint64_t id = 0) {
    if (id == 0) id = NewId();
    if (!enabled_) return id;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({id, parent, name, Since(start), Since(end)});
    return id;
  }
  // Moves a connection thread's spans in at once.
  void Append(std::vector<Span>* spans) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    for (Span& s : *spans) spans_.push_back(std::move(s));
    spans->clear();
  }

  void Write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter w;
    w.BeginObject();
    w.Key("schema");
    w.Value("perfbench.spans");
    w.Key("workload");
    w.Value(workload);
    w.Key("seed");
    w.Value(seed);
    w.Key("spans");
    w.BeginArray();
    for (const Span& s : spans_) {
      w.BeginObject();
      w.Key("id");
      w.Value(s.id);
      w.Key("parent");
      w.Value(s.parent);
      w.Key("name");
      w.Value(s.name);
      w.Key("start_s");
      w.Value(s.start_s);
      w.Key("end_s");
      w.Value(s.end_s);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::ofstream out(path);
    out << w.str() << "\n";
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Runs `body`, records it as a span, and returns its wall seconds.
template <typename F>
double Timed(SpanLog* spans, const std::string& name, std::uint64_t parent,
             F&& body) {
  const auto start = Clock::now();
  body();
  const auto end = Clock::now();
  spans->Record(name, parent, start, end);
  return SecondsBetween(start, end);
}

// ------------------------------------------------------------------- /proc

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string ProcPath(pid_t pid, const char* leaf) {
  return (pid == 0 ? std::string("/proc/self/")
                   : "/proc/" + std::to_string(pid) + "/") +
         leaf;
}

// Peak resident set (VmHWM) of `pid` (0: this process), in MB of 10^6 bytes.
double PeakRssMb(pid_t pid) {
  std::ifstream in(ProcPath(pid, "status"));
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // reported in kB
  return 0;
}

// Resets this process's peak-RSS mark to its current RSS, so the peak a
// batch run reports covers the timed window, not graph generation.
void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

// User + system CPU seconds `pid` has used so far.
double CpuSeconds(pid_t pid) {
  const std::string text = ReadFile(ProcPath(pid, "stat"));
  const std::size_t close = text.rfind(')');  // the command may hold spaces
  if (close == std::string::npos) return 0;
  std::vector<std::string> fields;
  std::size_t pos = close + 1;
  while (pos < text.size()) {
    const std::size_t start = text.find_first_not_of(' ', pos);
    if (start == std::string::npos) break;
    const std::size_t end = text.find(' ', start);
    fields.push_back(text.substr(start, end - start));
    pos = end == std::string::npos ? text.size() : end;
  }
  // fields[0] is field 3 (state); utime and stime are fields 14 and 15.
  if (fields.size() < 13) return 0;
  return (std::stod(fields[11]) + std::stod(fields[12])) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string LoadedLibgomp() {
  std::ifstream in("/proc/self/maps");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t path = line.find('/');
    if (path != std::string::npos &&
        line.find("libgomp", path) != std::string::npos)
      return line.substr(path);
  }
  return "not loaded";
}

std::string EnvironmentLine() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(std::thread::hardware_concurrency());
  JsonWriter w;
  w.BeginObject();
  w.Key("env");
  w.BeginObject();
  w.Key("build_type");
  w.Value(PERFBENCH_BUILD_TYPE);
  w.Key("compiler");
#ifdef __clang__
  w.Value("clang " __clang_version__);
#else
  w.Value("gcc " __VERSION__);
#endif
  w.Key("nproc");
  w.Value(nproc);
  w.Key("omp_max_threads");
  w.Value(omp_get_max_threads());
  w.Key("libgomp");
  w.Value(LoadedLibgomp());
  w.EndObject();
  w.EndObject();
  return w.str();
}

// ------------------------------------------------------ server and client

// A pivotscale_served child on an ephemeral loopback port; its output goes
// to <work-dir>/<tag>.log. The destructor drains and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, std::vector<std::string> args,
                const std::string& work_dir, const std::string& tag) {
    const std::string port_file = work_dir + "/" + tag + ".port";
    const std::string log = work_dir + "/" + tag + ".log";
    std::filesystem::remove(port_file);
    args.insert(args.begin(),
                {binary, "--port", "0", "--port-file", port_file});
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
    try {
      WaitForPort(port_file, log);
    } catch (...) {
      Stop();
      throw;
    }
  }
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  // SIGTERM drain; SIGKILL after 60 s. True when it exited 0 in time.
  bool Stop() {
    if (pid_ <= 0) return clean_exit_;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    int status = 0;
    bool exited = false;
    for (;;) {
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        exited = true;
        break;
      }
      if (r < 0) break;
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    clean_exit_ = exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return clean_exit_;
  }

 private:
  // The server writes the bound port, then a newline, once it listens.
  void WaitForPort(const std::string& port_file, const std::string& log) {
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    for (;;) {
      const std::string text = ReadFile(port_file);
      if (!text.empty() && text.back() == '\n') {
        port_ = static_cast<std::uint16_t>(std::stoul(text));
        return;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error(
            "pivotscale_served exited during start-up; see " + log);
      }
      if (Clock::now() > deadline)
        throw std::runtime_error("pivotscale_served did not start in 120 s");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  bool clean_exit_ = false;
};

// One blocking client connection speaking the NDJSON protocol.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
      throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const int err = errno;
      ::close(fd_);
      throw std::runtime_error(std::string("connect: ") + std::strerror(err));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Longer than any single counting run the workloads trigger.
    timeval timeout{150, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Sends one blank-line-terminated batch and reads `count` response lines,
  // noting when each arrived. False when the connection fails first.
  bool RoundTrip(const std::string& payload, std::size_t count,
                 std::vector<std::string>* lines,
                 std::vector<Clock::time_point>* arrivals) {
    lines->clear();
    arrivals->clear();
    std::size_t off = 0;
    while (off < payload.size()) {
      const ssize_t n = ::send(fd_, payload.data() + off,
                               payload.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    std::vector<FramedLine> framed;
    char buf[65536];
    while (lines->size() < count) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      const auto now = Clock::now();
      framed.clear();
      framer_.Feed(buf, static_cast<std::size_t>(n), &framed);
      for (FramedLine& line : framed) {
        if (line.text.empty()) continue;
        lines->push_back(std::move(line.text));
        arrivals->push_back(now);
      }
    }
    return true;
  }

 private:
  int fd_ = -1;
  ReadLineFramer framer_;
};

// --------------------------------------------------------------- queries

// What one served graph must answer, computed by calling the library.
struct GraphReference {
  std::string path;                // artifact path: the server's cache key
  std::vector<BigCount> per_size;  // per_size[s] = number of s-cliques
  // k -> (k-clique total, top vertices by participation).
  std::map<std::uint32_t, std::pair<BigCount, std::vector<VertexCount>>>
      per_vertex;
};

enum class QueryKind { kPlain, kAllK, kPerVertex };

struct Query {
  std::size_t graph = 0;
  QueryKind kind = QueryKind::kPlain;
  std::uint32_t k = kCliqueK;
};

std::string RequestLine(std::int64_t id, const std::string& path,
                        const Query& q) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.Value(id);
  w.Key("graph");
  w.Value(path);
  if (q.kind == QueryKind::kAllK) {
    w.Key("all_k");
    w.Value(true);
  } else {
    w.Key("k");
    w.Value(static_cast<std::int64_t>(q.k));
  }
  if (q.kind == QueryKind::kPerVertex) {
    w.Key("per_vertex");
    w.Value(true);
    w.Key("top");
    w.Value(static_cast<std::int64_t>(kTopN));
  }
  w.EndObject();
  return w.str();
}

std::string CountAt(const std::vector<BigCount>& per_size, std::uint32_t k) {
  return (k < per_size.size() ? per_size[k] : BigCount{}).ToString();
}

// The answer text `q` must get, in the form Canonical() gives a response.
std::string Expected(const GraphReference& ref, const Query& q) {
  std::string out;
  if (q.kind == QueryKind::kPerVertex) {
    const auto& [total, top] = ref.per_vertex.at(q.k);
    out = "count=" + total.ToString();
    for (const VertexCount& vc : top)
      out += ";v" + std::to_string(vc.vertex) + ":" + vc.count.ToString();
    return out;
  }
  out = "count=" + CountAt(ref.per_size, q.k);
  if (q.kind == QueryKind::kAllK)
    for (std::size_t s = 1; s < ref.per_size.size(); ++s)
      if (ref.per_size[s] != BigCount{})
        out += ";" + std::to_string(s) + ":" + ref.per_size[s].ToString();
  return out;
}

std::string Text(const JsonValue* v) {
  if (v == nullptr) return "?";
  if (v->IsNumber())
    return std::to_string(static_cast<std::uint64_t>(v->number));
  return v->string_value;
}

// The answer text of one ok response.
std::string Canonical(const JsonValue& doc) {
  std::string out = "count=" + Text(doc.Find("count"));
  if (const JsonValue* sizes = doc.Find("per_size"))
    for (const JsonValue& e : sizes->array)
      out += ";" + Text(e.Find("size")) + ":" + Text(e.Find("count"));
  if (const JsonValue* top = doc.Find("top_vertices"))
    for (const JsonValue& e : top->array)
      out += ";v" + Text(e.Find("vertex")) + ":" + Text(e.Find("count"));
  return out;
}

// One checked response.
struct Answer {
  bool ok = false;      // answered, with exactly the expected result
  std::string error;    // the server's error message, when it sent one
  bool cache_hit = false;
  bool memo_hit = false;
  double engine_s = 0;  // the response's "seconds": time inside the engine
  std::string problem;  // why it is not ok
};

Answer CheckResponse(const std::string& line, std::int64_t id, const Query& q,
                     const GraphReference& ref) {
  Answer a;
  JsonValue doc;
  try {
    doc = ParseJson(line);
  } catch (const std::exception& e) {
    a.problem = std::string("unparseable response: ") + e.what();
    return a;
  }
  const JsonValue* got_id = doc.Find("id");
  if (got_id == nullptr || static_cast<std::int64_t>(got_id->number) != id) {
    a.problem = "response out of order: " + line;
    return a;
  }
  const JsonValue* ok = doc.Find("ok");
  if (ok == nullptr || !ok->bool_value) {
    a.error = Text(doc.Find("error"));
    a.problem = "request failed: " + a.error;
    return a;
  }
  if (const JsonValue* v = doc.Find("cache_hit")) a.cache_hit = v->bool_value;
  if (const JsonValue* v = doc.Find("memo_hit")) a.memo_hit = v->bool_value;
  if (const JsonValue* v = doc.Find("seconds")) a.engine_s = v->number;
  const std::string got = Canonical(doc);
  const std::string want = Expected(ref, q);
  if (got != want) {
    a.problem = "wrong answer from " + ref.path + ": got " + got +
                ", expected " + want;
    return a;
  }
  a.ok = true;
  return a;
}

// -------------------------------------------------------------- traffic

// Makes a connection's next batch; `last_graph` holds the graph of its
// previous batch (the number of graphs before the first).
using BatchMaker =
    std::function<std::vector<Query>(Rng& rng, std::size_t* last_graph)>;

struct TrafficOutcome {
  std::vector<double> batch_latency_s;  // send -> last response
  std::vector<double> overhead_s;  // batch latency - its largest engine time
  std::vector<double> engine_s;    // per ok response
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ok = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  double window_s = 0;
  std::vector<std::string> problems;

  void Merge(TrafficOutcome&& o) {
    auto append = [](std::vector<double>& into, const std::vector<double>& v) {
      into.insert(into.end(), v.begin(), v.end());
    };
    append(batch_latency_s, o.batch_latency_s);
    append(overhead_s, o.overhead_s);
    append(engine_s, o.engine_s);
    attempted += o.attempted;
    failed += o.failed;
    ok += o.ok;
    cache_hits += o.cache_hits;
    memo_hits += o.memo_hits;
    shed += o.shed;
    timed_out += o.timed_out;
    for (std::string& p : o.problems) problems.push_back(std::move(p));
  }
};

// Closed loop: each connection sends its next batch only after the
// previous one is fully answered, until `seconds` have passed (at least
// one batch each).
TrafficOutcome RunTraffic(std::uint16_t port, int connections, double seconds,
                          std::uint64_t seed, const BatchMaker& make_batch,
                          const std::vector<GraphReference>& refs,
                          SpanLog* spans, std::uint64_t parent) {
  std::vector<TrafficOutcome> outcomes(static_cast<std::size_t>(connections));
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        TrafficOutcome& out = outcomes[static_cast<std::size_t>(c)];
        std::vector<Span> local;
        try {
          Connection conn(port);
          Rng rng(SplitMix64::Mix(seed) + static_cast<std::uint64_t>(c));
          std::size_t last_graph = refs.size();
          std::int64_t next_id = static_cast<std::int64_t>(c) * 1'000'000'000;
          std::vector<std::string> lines;
          std::vector<Clock::time_point> arrivals;
          do {
            const std::vector<Query> batch = make_batch(rng, &last_graph);
            const std::int64_t first_id = next_id;
            std::string payload;
            for (const Query& q : batch) {
              payload += RequestLine(next_id++, refs[q.graph].path, q);
              payload += '\n';
            }
            payload += '\n';  // blank line: flush as one batch
            out.attempted += batch.size();
            const auto sent = Clock::now();
            if (!conn.RoundTrip(payload, batch.size(), &lines, &arrivals)) {
              out.failed += batch.size();
              out.problems.push_back("connection lost mid-batch");
              break;
            }
            const auto done = Clock::now();
            double max_engine = 0;
            for (std::size_t i = 0; i < batch.size(); ++i) {
              const Answer a = CheckResponse(
                  lines[i], first_id + static_cast<std::int64_t>(i), batch[i],
                  refs[batch[i].graph]);
              if (a.error == "overloaded") ++out.shed;
              if (a.error == "deadline exceeded") ++out.timed_out;
              if (!a.ok) {
                ++out.failed;
                if (out.problems.size() < 5) out.problems.push_back(a.problem);
                continue;
              }
              ++out.ok;
              if (a.cache_hit) ++out.cache_hits;
              if (a.memo_hit) ++out.memo_hits;
              out.engine_s.push_back(a.engine_s);
              max_engine = std::max(max_engine, a.engine_s);
            }
            const double latency = SecondsBetween(sent, done);
            out.batch_latency_s.push_back(latency);
            out.overhead_s.push_back(latency - max_engine);
            if (spans->enabled()) {
              const std::uint64_t batch_id = spans->NewId();
              local.push_back({batch_id, parent, "client.batch",
                               spans->Since(sent), spans->Since(done)});
              for (std::size_t i = 0; i < batch.size(); ++i)
                local.push_back({spans->NewId(), batch_id, "client.request",
                                 spans->Since(sent),
                                 spans->Since(arrivals[i])});
            }
          } while (Clock::now() < deadline);
        } catch (const std::exception& e) {
          ++out.attempted;
          ++out.failed;
          out.problems.push_back(e.what());
        }
        spans->Append(&local);
      });
    }
  }  // the jthreads join here
  TrafficOutcome total;
  total.window_s = SecondsBetween(start, Clock::now());
  for (TrafficOutcome& o : outcomes) total.Merge(std::move(o));
  return total;
}

void Account(const TrafficOutcome& t, Report* report) {
  report->Attempt(t.attempted);
  if (t.failed > 0)
    report->FailOps(t.failed, std::to_string(t.failed) +
                                  " request(s) failed, first: " +
                                  (t.problems.empty() ? "?" : t.problems[0]));
}

// --------------------------------------------------------------- layers

// The pipeline's phases called one by one, as CountKCliques does.
struct Phases {
  double heuristic_s = 0;
  double ordering_s = 0;
  double directionalize_s = 0;
  double count_s = 0;
  Ordering ordering;
  Graph dag;
  EdgeId max_out_degree = 0;
  CountResult count;

  double Total() const {
    return heuristic_s + ordering_s + directionalize_s + count_s;
  }
};

Phases RunPhases(const Graph& g, const CountOptions& count,
                 TelemetryRegistry* telemetry, SpanLog* spans,
                 std::uint64_t parent) {
  Phases p;
  const HeuristicConfig config = bench::SuiteHeuristicConfig();
  HeuristicDecision decision;
  p.heuristic_s = Timed(spans, "order.heuristic", parent, [&] {
    decision = SelectOrdering(g, config, telemetry);
  });
  OrderingSpec spec;
  spec.kind = decision.use_core_approx ? OrderingKind::kApproxCore
                                       : OrderingKind::kDegree;
  spec.epsilon = config.epsilon;
  p.ordering_s = Timed(spans, "order.ordering", parent, [&] {
    p.ordering = ComputeOrdering(g, spec, telemetry);
  });
  p.directionalize_s = Timed(spans, "graph.directionalize", parent, [&] {
    p.dag = Directionalize(g, p.ordering.ranks, telemetry);
  });
  p.max_out_degree = MaxOutDegree(p.dag);
  p.count_s = Timed(spans, "pivot.count", parent,
                    [&] { p.count = CountCliques(p.dag, count); });
  return p;
}

// graph / order / pivot / exec figures, summed over a run's counting calls.
struct LayerTotals {
  double heuristic_s = 0;
  double ordering_s = 0;
  double directionalize_s = 0;
  double max_out_degree = 0;
  double count_s = 0;
  double build_serial_s = 0;
  std::uint64_t calls = 0;
  std::uint64_t edge_ops = 0;
  std::uint64_t induces = 0;
  double workspace_bytes = 0;  // largest single run
  int team = 0;                // smallest realized team
  double busy_s = 0;
  double team_wall_s = 0;  // sum over runs of team x counting wall
  double max_busy_s = 0;   // sum over runs of the busiest worker's seconds
  double mean_busy_s = 0;  // ... and of the mean worker's
  double single_thread_s = 0;
  double four_thread_s = 0;

  void AddCount(const CountResult& r, double wall) {
    count_s += wall;
    calls += r.ops.calls;
    edge_ops += r.ops.edge_ops;
    induces += r.ops.induces;
    workspace_bytes =
        std::max(workspace_bytes, static_cast<double>(r.workspace_bytes));
    const std::vector<double>& busy = r.thread_busy_seconds;
    const int t = static_cast<int>(busy.size());
    team = team == 0 ? t : std::min(team, t);
    busy_s += Sum(busy);
    team_wall_s += t * wall;
    if (t > 0) {
      max_busy_s += *std::max_element(busy.begin(), busy.end());
      mean_busy_s += Sum(busy) / t;
    }
  }
  void AddPhases(const Phases& p) {
    heuristic_s += p.heuristic_s;
    ordering_s += p.ordering_s;
    directionalize_s += p.directionalize_s;
    max_out_degree =
        std::max(max_out_degree, static_cast<double>(p.max_out_degree));
    AddCount(p.count, p.count_s);
  }
};

// The probes only a traced run pays for: a serial RemapSubgraph::Build over
// every root, and the same count untraced on 4 threads and on 1.
void AddExecProbes(const Graph& dag, CountOptions count, const BigCount& want,
                   LayerTotals* layers, SpanLog* spans, std::uint64_t parent,
                   Report* report) {
  layers->build_serial_s += Timed(spans, "pivot.build_serial", parent, [&] {
    RemapSubgraph sg;
    sg.Attach(dag);
    for (NodeId v = 0; v < dag.NumNodes(); ++v) sg.Build(v);
  });
  count.collect_op_stats = false;
  count.telemetry = nullptr;
  for (const int threads : {kThreads, 1}) {
    count.num_threads = threads;
    CountResult r;
    const double wall = Timed(
        spans, threads == 1 ? "exec.count_1_thread" : "exec.count_4_threads",
        parent, [&] { r = CountCliques(dag, count); });
    (threads == 1 ? layers->single_thread_s : layers->four_thread_s) += wall;
    report->Attempt();
    if (r.total != want)
      report->FailOps(1, "speedup probe counted " + r.total.ToString() +
                             ", expected " + want.ToString());
  }
}

// Everything a traced run reports.
struct PerLayer {
  LayerTotals layers;
  std::uint64_t exec_splits = 0;
  std::uint64_t exec_chunks = 0;
  double read_s = 0;
  double read_bytes = 0;
  TrafficOutcome traffic;  // the traced serving window
  double server_cpu_s = 0;
  JsonValue server_telemetry;
  double trace_overhead = 0;

  double ServerRecord(const char* section, const std::string& name) const {
    const JsonValue* s = server_telemetry.Find(section);
    const JsonValue* v = s == nullptr ? nullptr : s->Find(name);
    return v != nullptr && v->IsNumber() ? v->number : 0;
  }

  void Emit(Report* r) const {
    const LayerTotals& l = layers;
    r->Metric("graph.directionalize_s", l.directionalize_s, "s");
    r->Metric("graph.max_out_degree", l.max_out_degree, "count");
    r->Metric("order.heuristic_s", l.heuristic_s, "s");
    r->Metric("order.ordering_s", l.ordering_s, "s");
    r->Metric("pivot.count_s", l.count_s, "s");
    r->Metric("pivot.build_serial_s", l.build_serial_s, "s");
    r->Metric("pivot.build_share", Ratio(l.build_serial_s, l.busy_s), "ratio");
    r->Metric("pivot.calls", static_cast<double>(l.calls), "count");
    r->Metric("pivot.edge_ops", static_cast<double>(l.edge_ops), "count");
    r->Metric("pivot.induces", static_cast<double>(l.induces), "count");
    r->Metric("pivot.ns_per_edge_op",
              Ratio(l.busy_s * 1e9, static_cast<double>(l.edge_ops)), "ns");
    r->Metric("pivot.workspace_bytes", l.workspace_bytes, "bytes");
    r->Metric("exec.team", l.team, "count");
    r->Metric("exec.busy_s", l.busy_s, "s");
    r->Metric("exec.efficiency", Ratio(l.busy_s, l.team_wall_s), "ratio");
    r->Metric("exec.imbalance", Ratio(l.max_busy_s, l.mean_busy_s), "ratio");
    r->Metric("exec.splits", static_cast<double>(exec_splits), "count");
    r->Metric("exec.chunks", static_cast<double>(exec_chunks), "count");
    r->Metric("exec.speedup", Ratio(l.single_thread_s, l.four_thread_s),
              "ratio");
    r->Metric("store.read_s", read_s, "s");
    r->Metric("store.read_mb_per_s", Ratio(read_bytes / 1e6, read_s), "MB/s");
    r->Metric("service.engine_ms_p50", Quantile(traffic.engine_s, 0.5) * 1e3,
              "ms");
    r->Metric("service.engine_ms_p90", Quantile(traffic.engine_s, 0.9) * 1e3,
              "ms");
    const auto answered = static_cast<double>(traffic.ok);
    r->Metric("service.memo_hit_ratio",
              Ratio(static_cast<double>(traffic.memo_hits), answered),
              "ratio");
    r->Metric("service.cache_hit_ratio",
              Ratio(static_cast<double>(traffic.cache_hits), answered),
              "ratio");
    r->Metric("service.count_runs",
              ServerRecord("counters", "service.count_runs"), "count");
    r->Metric("service.per_vertex_runs",
              ServerRecord("counters", "service.per_vertex_runs"), "count");
    r->Metric("service.evictions",
              ServerRecord("counters", "service.evictions"), "count");
    r->Metric("net.overhead_ms_p50", Quantile(traffic.overhead_s, 0.5) * 1e3,
              "ms");
    r->Metric("net.overhead_ms_p99", Quantile(traffic.overhead_s, 0.99) * 1e3,
              "ms");
    r->Metric("net.server_cpu_us_per_request",
              Ratio(server_cpu_s * 1e6,
                    static_cast<double>(traffic.ok + traffic.failed)),
              "us");
    r->Metric("net.shed", ServerRecord("counters", "net.shed"), "count");
    r->Metric("net.timed_out", ServerRecord("counters", "net.timed_out"),
              "count");
    r->Metric("net.queue_depth_high_water",
              ServerRecord("gauges", "net.queue_depth_high_water"), "count");
    r->Metric("trace.overhead", trace_overhead, "ratio");
  }
};

// An operation is one CountKCliques call (batch workloads) or one request
// batch round trip (serving workloads).
void EmitEndToEnd(const std::vector<double>& setup_s,
                  const std::vector<double>& op_latency_s, double window_s,
                  double completed, double peak_rss_mb, Report* r) {
  r->Metric("setup_s", Quantile(setup_s, 0.5), "s");
  r->Metric("pipeline_s", Quantile(op_latency_s, 0.5), "s");
  r->Metric("peak_rss_mb", peak_rss_mb, "MB");
  r->Metric("throughput_rps", Ratio(completed, window_s), "1/s");
  r->Metric("latency_p50_ms", Quantile(op_latency_s, 0.5) * 1e3, "ms");
  r->Metric("latency_p90_ms", Quantile(op_latency_s, 0.9) * 1e3, "ms");
}

// ------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool corrupt_reference = false;
  std::string served;    // the pivotscale_served binary
  std::string work_dir;  // artifacts, server logs and telemetry
  std::string spans_out;
};

std::vector<std::string> ServerArgs() {
  return {"--workers", "2", "--queue-depth", "64", "--threads",
          std::to_string(kThreads)};
}

JsonValue StopAndReadTelemetry(ServerProcess* server, const std::string& path,
                               Report* report) {
  if (!server->Stop())
    report->Problem("pivotscale_served did not drain cleanly");
  try {
    return ParseJson(ReadFile(path));
  } catch (const std::exception& e) {
    report->Problem(std::string("server telemetry unreadable: ") + e.what());
    return {};
  }
}

// ------------------------------------------------------- batch workloads

struct BatchPlan {
  std::string dataset;
  double scale = 1;
  double smoke_scale = 0.1;
  std::uint64_t expected = 0;  // k = 8 count at full scale, for every seed
};

// The suite graph with its vertex ids relabeled by the workload seed: the
// clique count cannot change, while tie-breaks and per-root work do.
Graph RelabeledInput(const std::string& dataset, double scale,
                     std::uint64_t seed) {
  const Dataset d = MakeDataset(dataset, scale);
  const Graph& g = d.graph;
  EdgeList edges;
  edges.reserve(g.NumUndirectedEdges());
  for (NodeId u = 0; u < g.NumNodes(); ++u)
    for (NodeId v : g.Neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  ShuffleVertexIds(&edges, g.NumNodes(), SplitMix64::Mix(seed));
  return BuildUndirected(std::move(edges), g.NumNodes());
}

PivotScaleOptions PipelineOptions() {
  PivotScaleOptions options;
  options.k = kCliqueK;
  options.heuristic = bench::SuiteHeuristicConfig();
  options.count.num_threads = kThreads;
  return options;
}

void CheckCount(const BigCount& got, const BigCount& want,
                const std::string& what, Report* report) {
  report->Attempt();
  if (got != want)
    report->FailOps(1, what + " counted " + got.ToString() + ", expected " +
                           want.ToString());
}

void CheckTeam(const CountResult& r, Report* report) {
  const std::size_t team = r.thread_busy_seconds.size();
  if (team != static_cast<std::size_t>(kThreads))
    report->Problem("guard: realized exec.team " + std::to_string(team) +
                    ", expected " + std::to_string(kThreads));
}

void RunBatch(const Options& opt, const BatchPlan& plan, Report* report,
              SpanLog* spans) {
  const double scale = opt.smoke ? plan.smoke_scale : plan.scale;
  BigCount expected{static_cast<uint128>(plan.expected)};
  if (opt.smoke) {
    PivotScaleOptions reference = PipelineOptions();
    reference.forced_ordering = OrderingSpec{OrderingKind::kCore};
    expected =
        CountKCliques(MakeDataset(plan.dataset, scale).graph, reference).total;
  }
  if (opt.corrupt_reference) expected += BigCount{1};
  const PivotScaleOptions options = PipelineOptions();

  Graph g;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupReps); ++rep) {
    g = Graph();
    const auto start = Clock::now();
    g = RelabeledInput(plan.dataset, scale, opt.seed);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
  }

  if (!opt.trace) {
    ResetPeakRss();
    std::vector<double> walls;
    const auto window_start = Clock::now();
    do {
      const auto start = Clock::now();
      const PivotScaleResult r = CountKCliques(g, options);
      walls.push_back(SecondsBetween(start, Clock::now()));
      CheckCount(r.total, expected, "pipeline", report);
      CheckTeam(r.count, report);
    } while (SecondsBetween(window_start, Clock::now()) < opt.seconds);
    EmitEndToEnd(setup_s, walls, SecondsBetween(window_start, Clock::now()),
                 static_cast<double>(walls.size()), PeakRssMb(0), report);
    return;
  }

  const auto run_start = Clock::now();
  const std::uint64_t root = spans->NewId();
  PerLayer out;
  PivotScaleResult untraced;
  const double untraced_s = Timed(spans, "pipeline.untraced", root, [&] {
    untraced = CountKCliques(g, options);
  });
  CheckCount(untraced.total, expected, "untraced pipeline", report);

  TelemetryRegistry registry;
  CountOptions count = options.count;
  count.k = kCliqueK;
  count.collect_op_stats = true;
  count.telemetry = &registry;
  const Phases p = RunPhases(g, count, &registry, spans, root);
  CheckCount(p.count.total, expected, "traced pipeline", report);
  CheckTeam(p.count, report);
  out.layers.AddPhases(p);
  out.exec_splits = registry.Counter("exec.splits");
  out.exec_chunks = registry.Counter("exec.chunks");
  out.trace_overhead = p.Total() / untraced_s - 1;
  AddExecProbes(p.dag, count, expected, &out.layers, spans, root, report);

  // store: this graph's artifact, written and read back.
  const std::string path = opt.work_dir + "/" + plan.dataset + ".psx";
  {
    GraphArtifact artifact;
    artifact.graph = g;
    artifact.dag = p.dag;
    artifact.ordering_name = p.ordering.name;
    artifact.ranks = p.ordering.ranks;
    artifact.max_out_degree = p.max_out_degree;
    WriteArtifact(path, artifact);
    GraphArtifact loaded;
    out.read_s = Timed(spans, "store.read", root,
                       [&] { loaded = ReadArtifact(path); });
    out.read_bytes = static_cast<double>(std::filesystem::file_size(path));
    if (loaded.dag.neighbor_array() != artifact.dag.neighbor_array())
      report->Problem("artifact DAG read back differs from the one written");
  }

  // service / net: the same artifact served, at plain k = kServedK; the
  // reference comes from the library's own kAllUpToK run.
  GraphReference ref;
  ref.path = path;
  {
    CountOptions upto;
    upto.k = kServedK;
    upto.mode = CountMode::kAllUpToK;
    upto.num_threads = kThreads;
    ref.per_size = CountCliques(p.dag, upto).per_size;
    if (opt.corrupt_reference) ref.per_size[kServedK] += BigCount{1};
  }
  const std::vector<GraphReference> refs = {ref};
  const std::string telemetry = opt.work_dir + "/served-batch.json";
  std::vector<std::string> args = ServerArgs();
  args.insert(args.end(), {"--preload", path, "--telemetry-json", telemetry});
  ServerProcess server(opt.served, args, opt.work_dir, "served-batch");
  const BatchMaker same = [](Rng&, std::size_t*) {
    return std::vector<Query>(4, Query{0, QueryKind::kPlain, kServedK});
  };
  // The first batch pays the server's one counting run; later ones are
  // memo hits.
  Account(RunTraffic(server.port(), 1, 0, opt.seed, same, refs, spans, root),
          report);
  const double cpu_before = CpuSeconds(server.pid());
  out.traffic = RunTraffic(server.port(), kThreads, opt.seconds / 2, opt.seed,
                           same, refs, spans, root);
  out.server_cpu_s = CpuSeconds(server.pid()) - cpu_before;
  out.server_telemetry = StopAndReadTelemetry(&server, telemetry, report);
  Account(out.traffic, report);

  out.Emit(report);
  spans->Record("run." + opt.workload, 0, run_start, Clock::now(), root);
}

// ----------------------------------------------------- serving workloads

struct ServingPlan {
  std::vector<std::string> datasets;
  int connections = 4;
  bool hot = true;
};

std::vector<VertexCount> TopVertices(const std::vector<BigCount>& pv) {
  std::vector<NodeId> order;
  for (NodeId v = 0; v < pv.size(); ++v)
    if (pv[v] != BigCount{}) order.push_back(v);
  const std::size_t top = std::min<std::size_t>(kTopN, order.size());
  // The engine's order: count descending, then vertex id.
  std::partial_sort(order.begin(), order.begin() + top, order.end(),
                    [&](NodeId a, NodeId b) {
                      if (pv[a] != pv[b]) return pv[b] < pv[a];
                      return a < b;
                    });
  std::vector<VertexCount> out;
  for (std::size_t t = 0; t < top; ++t) out.push_back({order[t], pv[order[t]]});
  return out;
}

// What the server must answer for one graph, from direct library calls. In
// a traced run the calls also feed the graph, order, pivot and exec layers.
GraphReference ComputeReference(const Graph& g, bool traced,
                                LayerTotals* layers,
                                TelemetryRegistry* registry, SpanLog* spans,
                                std::uint64_t parent, Report* report) {
  CountOptions all;
  all.k = kCliqueK;
  all.mode = CountMode::kAllK;
  all.num_threads = kThreads;
  all.collect_op_stats = traced;
  all.telemetry = traced ? registry : nullptr;
  const Phases p =
      RunPhases(g, all, traced ? registry : nullptr, spans, parent);
  GraphReference ref;
  ref.per_size = p.count.per_size;
  if (traced) layers->AddPhases(p);
  for (const std::uint32_t k : kPerVertexKs) {
    CountOptions pv = all;
    pv.mode = CountMode::kSingleK;
    pv.k = k;
    pv.per_vertex = true;
    CountResult r;
    const double wall = Timed(spans, "pivot.per_vertex_count", parent,
                              [&] { r = CountCliques(p.dag, pv); });
    if (traced) layers->AddCount(r, wall);
    ref.per_vertex[k] = {r.total, TopVertices(r.per_vertex)};
  }
  if (traced)
    AddExecProbes(p.dag, all, p.count.total, layers, spans, parent, report);
  return ref;
}

// serve-hot: mostly plain k in [3, 8], ~10 % all_k, ~10 % per_vertex.
std::vector<Query> HotBatch(Rng& rng, std::size_t graphs) {
  std::vector<Query> batch(4);
  for (Query& q : batch) {
    q.graph = rng.Below(graphs);
    const double u = rng.NextDouble();
    if (u < 0.1) {
      q.kind = QueryKind::kAllK;
    } else if (u < 0.2) {
      q.kind = QueryKind::kPerVertex;
      q.k = kPerVertexKs[rng.Below(std::size(kPerVertexKs))];
    } else {
      q.k = static_cast<std::uint32_t>(rng.Between(3, 8));
    }
  }
  return batch;
}

// serve-cold: two queries on one graph per batch, never the connection's
// previous graph.
std::vector<Query> ColdBatch(Rng& rng, std::size_t graphs,
                             std::size_t* last_graph) {
  std::size_t g = 0;
  if (*last_graph < graphs) {
    g = rng.Below(graphs - 1);
    if (g >= *last_graph) ++g;
  } else {
    g = rng.Below(graphs);
  }
  *last_graph = g;
  std::vector<Query> batch(2);
  for (Query& q : batch) {
    q.graph = g;
    const double u = rng.NextDouble();
    if (u < 0.6) {
      q.k = static_cast<std::uint32_t>(rng.Between(3, 8));
    } else if (u < 0.8) {
      q.kind = QueryKind::kAllK;
    } else {
      q.kind = QueryKind::kPerVertex;
      q.k = kPerVertexKs[rng.Below(std::size(kPerVertexKs))];
    }
  }
  return batch;
}

// One set-up: generate the graphs, write their artifacts, start the server
// and, on serve-hot, warm its memo with every (graph, query) pair.
std::unique_ptr<ServerProcess> SetUpServer(
    const Options& opt, const ServingPlan& plan, double scale,
    const std::vector<GraphReference>& refs, const std::string& telemetry,
    Report* report) {
  std::vector<std::size_t> bytes;
  for (std::size_t i = 0; i < plan.datasets.size(); ++i) {
    const Dataset d = MakeDataset(plan.datasets[i], scale);
    ArtifactBuildOptions build;
    build.heuristic = bench::SuiteHeuristicConfig();
    const GraphArtifact artifact = BuildArtifact(d.graph, build);
    WriteArtifact(refs[i].path, artifact);
    bytes.push_back(artifact.HeapBytes());
  }
  std::vector<std::string> args = ServerArgs();
  if (plan.hot) {
    std::string preload;
    for (const GraphReference& ref : refs)
      preload += (preload.empty() ? "" : ",") + ref.path;
    args.insert(args.end(), {"--preload", preload});
  } else {
    // Below the two smallest artifacts combined: only the newest one stays.
    std::sort(bytes.begin(), bytes.end());
    args.insert(args.end(),
                {"--cache-bytes", std::to_string((bytes[0] + bytes[1]) / 2)});
  }
  if (!telemetry.empty())
    args.insert(args.end(), {"--telemetry-json", telemetry});
  auto server = std::make_unique<ServerProcess>(
      opt.served, args, opt.work_dir, plan.hot ? "served-hot" : "served-cold");

  std::vector<Query> warm;
  if (plan.hot) {
    for (std::size_t g = 0; g < refs.size(); ++g) {
      warm.push_back({g, QueryKind::kAllK, kCliqueK});
      for (const std::uint32_t k : kPerVertexKs)
        warm.push_back({g, QueryKind::kPerVertex, k});
      for (std::uint32_t k = 3; k <= 8; ++k)
        warm.push_back({g, QueryKind::kPlain, k});
    }
  } else {
    warm.push_back({0, QueryKind::kPlain, 3});
  }
  SpanLog off(false);
  const TrafficOutcome t = RunTraffic(
      server->port(), 1, 0, 0, [&warm](Rng&, std::size_t*) { return warm; },
      refs, &off, 0);
  if (t.failed > 0)
    report->Problem("warm-up answer wrong: " +
                    (t.problems.empty() ? "?" : t.problems[0]));
  return server;
}

void CheckServingGuards(const ServingPlan& plan, const TrafficOutcome& t,
                        Report* report) {
  const auto answered = static_cast<double>(t.ok);
  const double memo = Ratio(static_cast<double>(t.memo_hits), answered);
  const double cache = Ratio(static_cast<double>(t.cache_hits), answered);
  if (plan.hot) {
    if (memo < 1 || cache < 1)
      report->Problem("guard: serve-hot memo_hit_ratio " +
                      std::to_string(memo) + ", cache_hit_ratio " +
                      std::to_string(cache) + " (both must be 1)");
    if (t.shed + t.timed_out > 0)
      report->Problem("guard: serve-hot saw shed or timed-out responses");
  } else if (cache > kColdCacheHitCeiling) {
    report->Problem("guard: serve-cold cache_hit_ratio " +
                    std::to_string(cache) + " above " +
                    std::to_string(kColdCacheHitCeiling));
  }
}

void RunServing(const Options& opt, const ServingPlan& plan, Report* report,
                SpanLog* spans) {
  const double scale = opt.smoke ? 0.05 : 1.0;
  const auto run_start = Clock::now();
  const std::uint64_t root = spans->NewId();
  PerLayer out;
  TelemetryRegistry registry;
  std::vector<GraphReference> refs;
  for (const std::string& name : plan.datasets) {
    const Dataset d = MakeDataset(name, scale);
    refs.push_back(ComputeReference(d.graph, opt.trace, &out.layers,
                                    &registry, spans, root, report));
    refs.back().path = opt.work_dir + "/" + name + ".psx";
    if (opt.corrupt_reference) {
      for (std::size_t s = 1; s < refs.back().per_size.size(); ++s)
        refs.back().per_size[s] += BigCount{1};
      for (auto& entry : refs.back().per_vertex)
        entry.second.first += BigCount{1};
    }
  }
  out.exec_splits = registry.Counter("exec.splits");
  out.exec_chunks = registry.Counter("exec.chunks");
  const std::size_t graphs = refs.size();
  BatchMaker make_batch;
  if (plan.hot)
    make_batch = [graphs](Rng& rng, std::size_t*) {
      return HotBatch(rng, graphs);
    };
  else
    make_batch = [graphs](Rng& rng, std::size_t* last) {
      return ColdBatch(rng, graphs, last);
    };

  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupReps); ++rep) {
    if (server != nullptr && !server->Stop())
      report->Problem("pivotscale_served did not drain cleanly");
    server.reset();
    const auto start = Clock::now();
    server = SetUpServer(opt, plan, scale, refs, "", report);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
  }
  SpanLog off(false);
  const TrafficOutcome plain =
      RunTraffic(server->port(), plan.connections, opt.seconds, opt.seed,
                 make_batch, refs, &off, 0);
  const double peak_rss_mb = PeakRssMb(server->pid());
  if (!server->Stop())
    report->Problem("pivotscale_served did not drain cleanly");
  server.reset();
  Account(plain, report);
  CheckServingGuards(plan, plain, report);

  if (!opt.trace) {
    EmitEndToEnd(setup_s, plain.batch_latency_s, plain.window_s,
                 static_cast<double>(plain.ok + plain.failed), peak_rss_mb,
                 report);
    return;
  }

  // The traced window: the same traffic against a server that records its
  // own telemetry, with every batch and request spanned here.
  const std::string telemetry = opt.work_dir + "/served-telemetry.json";
  server = SetUpServer(opt, plan, scale, refs, telemetry, report);
  const double cpu_before = CpuSeconds(server->pid());
  out.traffic = RunTraffic(server->port(), plan.connections, opt.seconds,
                           opt.seed, make_batch, refs, spans, root);
  out.server_cpu_s = CpuSeconds(server->pid()) - cpu_before;
  out.server_telemetry = StopAndReadTelemetry(server.get(), telemetry, report);
  server.reset();
  Account(out.traffic, report);
  CheckServingGuards(plan, out.traffic, report);
  out.trace_overhead = Quantile(out.traffic.batch_latency_s, 0.5) /
                           Quantile(plain.batch_latency_s, 0.5) -
                       1;

  for (const GraphReference& ref : refs) {
    GraphArtifact loaded;
    out.read_s += Timed(spans, "store.read", root,
                        [&] { loaded = ReadArtifact(ref.path); });
    out.read_bytes +=
        static_cast<double>(std::filesystem::file_size(ref.path));
  }
  out.Emit(report);
  spans->Record("run." + opt.workload, 0, run_start, Clock::now(), root);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    args.RejectUnknown({"workload", "seed", "seconds", "trace", "served",
                        "work-dir", "spans-out", "smoke",
                        "corrupt-reference"});
    Options opt;
    opt.workload = args.GetString("workload", "");
    opt.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
    opt.seconds = args.GetDouble("seconds", 10);
    opt.trace = args.GetInt("trace", 0) != 0;
    opt.smoke = args.GetBool("smoke", false);
    opt.corrupt_reference = args.GetBool("corrupt-reference", false);
    opt.served = args.GetString("served", "");
    opt.work_dir = std::filesystem::absolute(
                       args.GetString("work-dir", "perfbench-work"))
                       .string();
    opt.spans_out = args.GetString("spans-out", "");
    if (!(opt.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
    std::filesystem::create_directories(opt.work_dir);

    std::cout << EnvironmentLine() << std::endl;
    SpanLog spans(opt.trace);
    Report report;
    if (opt.workload == "lj-k8") {
      RunBatch(opt, {"livejournal-like", 1.0, 0.1, 2783542710ULL}, &report,
               &spans);
    } else if (opt.workload == "fr-k8") {
      RunBatch(opt, {"friendster-like", 4.0, 0.1, 13513401ULL}, &report,
               &spans);
    } else if (opt.workload == "serve-hot") {
      RunServing(
          opt,
          {{"dblp-like", "wikitalk-like", "webedu-like", "skitter-like"},
           4,
           true},
          &report, &spans);
    } else if (opt.workload == "serve-cold") {
      RunServing(opt,
                 {{"dblp-like", "baidu-like", "wikitalk-like", "webedu-like",
                   "friendster-like", "skitter-like"},
                  2,
                  false},
                 &report, &spans);
    } else {
      throw std::runtime_error("unknown --workload '" + opt.workload + "'");
    }
    if (opt.trace && !opt.spans_out.empty())
      spans.Write(opt.spans_out, opt.workload, opt.seed);
    for (const std::string& p : report.problems())
      std::cerr << "perfbench: " << p << "\n";
    std::cout << report.Json() << std::endl;
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
}

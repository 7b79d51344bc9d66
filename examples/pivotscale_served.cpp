// Concurrent TCP clique-query server over preprocessed .psx artifacts.
//
// The network sibling of pivotscale_serve: the same NDJSON protocol
// (src/service/protocol.h — one request per line, blank line flushes the
// connection's pending lines as one deduplicated batch), served to many
// clients at once by an epoll event loop (src/net/event_loop.*) in front
// of a fixed worker pool with a bounded admission queue
// (src/net/worker_pool.*). Overload sheds with
// {"ok":false,"error":"overloaded"}; per-request "deadline_ms" expires
// with "deadline exceeded"; SIGTERM/SIGINT drain gracefully (stop
// accepting, finish in-flight batches, flush every response, exit 0).
//
// Usage:
//   pivotscale_served --port P [--bind 127.0.0.1] [--max-connections N]
//                     [--queue-depth N] [--workers N]
//                     [--max-line-bytes N] [--cache-bytes N] [--threads N]
//                     [--preload a.psx,b.psx] [--telemetry-json out.json]
//                     [--port-file path] [--version]
//
// --port 0 picks an ephemeral port; the bound port is printed on stdout
// and, with --port-file, written bare to that file (for scripts).
// Run bare (no --port), the binary prints the usage banner and exits so
// the CI examples loop terminates.
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "net/event_loop.h"
#include "service/query_engine.h"
#include "util/cli.h"
#include "util/telemetry.h"
#include "util/version.h"

using namespace pivotscale;

namespace {

constexpr char kUsage[] =
    "pivotscale_served: concurrent NDJSON clique-query server (TCP)\n"
    "  pivotscale_served --port P [--bind 127.0.0.1]\n"
    "                    [--max-connections N] [--queue-depth N]\n"
    "                    [--workers N] [--max-line-bytes N]\n"
    "                    [--cache-bytes N] [--threads N]\n"
    "                    [--preload a.psx,b.psx]\n"
    "                    [--telemetry-json out.json] [--port-file path]\n"
    "  request : {\"id\":1,\"graph\":\"g.psx\",\"k\":8}  (id required, >= 0)\n"
    "            optional keys: all_k, per_vertex, top,\n"
    "            deadline_ms (expired work answers \"deadline exceeded\")\n"
    "  a blank line flushes the pending lines as one deduplicated batch;\n"
    "  a full admission queue answers \"overloaded\" instead of queueing.\n"
    "SIGTERM/SIGINT drain gracefully. See docs/serving.md.\n";

NetServer* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    args.RejectUnknown({"port", "bind", "max-connections", "queue-depth",
                        "workers", "max-line-bytes", "cache-bytes",
                        "threads", "preload", "telemetry-json",
                        "port-file", "version", "help"});
    if (args.GetBool("version", false)) {
      std::cout << "pivotscale_served " << VersionString() << "\n";
      return 0;
    }
    if (args.GetBool("help", false) || !args.Has("port")) {
      std::cout << kUsage;
      return 0;
    }

    const std::string telemetry_path = args.GetPath("telemetry-json", "");
    TelemetryRegistry telemetry;

    QueryEngineOptions engine_options;
    engine_options.cache_byte_budget = static_cast<std::size_t>(
        args.GetInt("cache-bytes", std::int64_t{1} << 30));
    engine_options.num_threads = args.GetThreads();
    if (!telemetry_path.empty()) engine_options.telemetry = &telemetry;
    QueryEngine engine(engine_options);

    std::stringstream preload_list(args.GetString("preload", ""));
    std::string preload_path;
    while (std::getline(preload_list, preload_path, ',')) {
      if (preload_path.empty()) continue;
      engine.Preload(preload_path);
      std::cerr << "preloaded " << preload_path << "\n";
    }

    NetServerOptions options;
    options.bind_address = args.GetString("bind", "127.0.0.1");
    options.port = static_cast<std::uint16_t>(args.GetInt("port", 0));
    options.max_connections =
        static_cast<int>(args.GetInt("max-connections", 1024));
    options.queue_depth =
        static_cast<std::size_t>(args.GetInt("queue-depth", 64));
    options.workers = args.GetThreads("workers", 2);
    options.max_line_bytes = static_cast<std::size_t>(args.GetInt(
        "max-line-bytes",
        static_cast<std::int64_t>(ReadLineFramer::kDefaultMaxLineBytes)));
    if (!telemetry_path.empty()) options.telemetry = &telemetry;

    NetServer server(&engine, options);
    server.Start();
    g_server = &server;
    std::signal(SIGTERM, HandleSignal);
    std::signal(SIGINT, HandleSignal);

    const std::string port_file = args.GetPath("port-file", "");
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      if (!out)
        throw std::runtime_error("cannot write --port-file " + port_file);
      out << server.port() << "\n";
    }
    std::cout << "pivotscale_served: listening on " << options.bind_address
              << ":" << server.port() << " (workers=" << options.workers
              << ", queue-depth=" << options.queue_depth << ")"
              << std::endl;

    server.Run();
    g_server = nullptr;
    std::cout << "pivotscale_served: drained, exiting\n";

    if (!telemetry_path.empty()) {
      WriteRunReport(telemetry_path, telemetry);
      std::cerr << "telemetry written to " << telemetry_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

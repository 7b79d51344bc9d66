// Clique-query server over preprocessed .psx artifacts: NDJSON on stdin,
// or over TCP to many clients at once.
//
// Both modes speak the protocol of src/service/protocol.h — one request
// per line, one response per line in request order, and a blank line (or
// end of input) flushes the pending lines as one deduplicated batch — and
// share its line framing, request parsing, per-request "deadline_ms"
// checks and batch execution (src/net/worker_pool.*).
//
//  * Without --port, requests come from stdin and responses go to stdout,
//    one batch at a time: `pivotscale_served < requests.ndjson` replays a
//    request file. When stdin is a terminal the usage banner is printed
//    instead, so a bare run never blocks on a silent read.
//  * With --port, an epoll event loop (src/net/event_loop.*) serves many
//    clients in front of a fixed worker pool with a bounded admission
//    queue. Overload sheds with {"ok":false,"error":"overloaded"};
//    SIGTERM/SIGINT drain gracefully (stop accepting, finish in-flight
//    batches, flush every response, exit 0).
//
// Usage:
//   pivotscale_served [--port P] [--bind 127.0.0.1] [--max-connections N]
//                     [--queue-depth N] [--workers N]
//                     [--max-line-bytes N] [--cache-bytes N] [--threads N]
//                     [--preload a.psx,b.psx] [--telemetry-json out.json]
//                     [--port-file path] [--version]
//
// --port 0 picks an ephemeral port; the bound port is printed on stdout
// and, with --port-file, written bare to that file (for scripts). The
// TCP-only flags (--bind, --max-connections, --queue-depth, --workers,
// --port-file) are validated in stdin mode too, but unused there.
// --threads N caps every thread of the binary (the exec layer's thread
// capacity), as in pivotscale_cli and pivotscale_prep; --workers is
// clamped to it, and the "listening" line prints the workers that run.
#include <unistd.h>

#include <csignal>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "exec/executor.h"
#include "net/event_loop.h"
#include "service/query_engine.h"
#include "util/atomic_file.h"
#include "util/cli.h"
#include "util/telemetry.h"
#include "util/version.h"

using namespace pivotscale;

namespace {

constexpr char kUsage[] =
    "pivotscale_served: NDJSON clique-query server (stdin or TCP)\n"
    "  pivotscale_served [--max-line-bytes N] [--cache-bytes N]\n"
    "                    [--threads N] [--preload a.psx,b.psx]\n"
    "                    [--telemetry-json out.json] < requests.ndjson\n"
    "  pivotscale_served --port P [--bind 127.0.0.1]\n"
    "                    [--max-connections N] [--queue-depth N]\n"
    "                    [--workers N] [--port-file path] [same flags]\n"
    "  request : {\"id\":1,\"graph\":\"g.psx\",\"k\":8}  (id required, >= 0)\n"
    "            optional keys: all_k, per_vertex, top,\n"
    "            deadline_ms (expired work answers \"deadline exceeded\")\n"
    "  a blank line flushes the pending lines as one deduplicated batch;\n"
    "  over TCP a full admission queue answers \"overloaded\" instead of\n"
    "  queueing, and SIGTERM/SIGINT drain gracefully.\n"
    "Build artifacts with pivotscale_prep; see docs/serving.md.\n";

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
    const bool stdin_mode = !args.Has("port");
    if (args.GetBool("help", false) ||
        (stdin_mode && isatty(fileno(stdin)))) {
      std::cout << kUsage;
      return 0;
    }

    const std::string telemetry_path = args.GetPath("telemetry-json", "");
    TelemetryRegistry telemetry;

    // Every flag is validated before anything is loaded, in both modes.
    if (args.Has("threads")) SetThreadCapacity(args.GetThreads());
    NetServerOptions options;
    options.bind_address = args.GetString("bind", "127.0.0.1");
    options.port =
        static_cast<std::uint16_t>(args.GetIntInRange("port", 0, 0, 65535));
    options.max_connections = static_cast<int>(args.GetIntInRange(
        "max-connections", 1024, 1, std::numeric_limits<int>::max()));
    options.queue_depth =
        static_cast<std::size_t>(args.GetIntInRange("queue-depth", 64, 1));
    options.workers = args.GetThreads("workers", 2);
    options.max_line_bytes = static_cast<std::size_t>(args.GetIntInRange(
        "max-line-bytes",
        static_cast<std::int64_t>(ReadLineFramer::kDefaultMaxLineBytes), 1));
    if (!telemetry_path.empty()) options.telemetry = &telemetry;
    const std::string port_file = args.GetPath("port-file", "");

    QueryEngineOptions engine_options;
    engine_options.cache_byte_budget = static_cast<std::size_t>(
        args.GetIntInRange("cache-bytes", std::int64_t{1} << 30, 0));
    engine_options.telemetry = options.telemetry;
    QueryEngine engine(engine_options);

    std::stringstream preload_list(args.GetString("preload", ""));
    std::string preload_path;
    while (std::getline(preload_list, preload_path, ',')) {
      if (preload_path.empty()) continue;
      engine.Preload(preload_path);
      std::cerr << "preloaded " << preload_path << "\n";
    }

    if (stdin_mode) {
      ServeStream(std::cin, std::cout, engine, options.max_line_bytes,
                  options.telemetry);
    } else {
      NetServer server(&engine, options);
      server.Start();
      g_server = &server;
      std::signal(SIGTERM, HandleSignal);
      std::signal(SIGINT, HandleSignal);

      if (!port_file.empty())
        WriteFileAtomic(port_file, std::to_string(server.port()) + "\n");
      std::cout << "pivotscale_served: listening on " << options.bind_address
                << ":" << server.port() << " (workers=" << server.workers()
                << ", queue-depth=" << options.queue_depth << ")"
                << std::endl;

      server.Run();
      g_server = nullptr;
      std::cout << "pivotscale_served: drained, exiting\n";
    }

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

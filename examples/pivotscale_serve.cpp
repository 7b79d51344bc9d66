// Clique-query server over preprocessed .psx artifacts.
//
// Speaks the newline-delimited JSON protocol of src/service/protocol.h on
// stdin/stdout: one request object per line, one response per line, in
// request order. A blank line (or end of input) flushes the accumulated
// lines as one batch through the QueryEngine, so same-graph k-queries
// inside a batch are answered from a single counting run. Lines go
// through the same ReadLineFramer as the TCP server (pivotscale_served):
// a trailing '\r' is stripped so CRLF clients parse, and a line over
// --max-line-bytes is answered with a per-line error instead of growing
// the buffer without bound.
//
// Usage:
//   pivotscale_serve [--batch requests.ndjson] [--cache-bytes N]
//                    [--threads N] [--preload a.psx,b.psx]
//                    [--max-line-bytes N] [--telemetry-json out.json]
//                    [--version]
//
// --batch replays a request file (benchmarking / CI smoke); without it,
// requests are read from stdin until EOF. Run with --help for the request
// schema. Executed bare (no stdin redirection is detected as an empty
// batch), the binary prints the usage banner and exits cleanly.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "net/framer.h"
#include "service/protocol.h"
#include "service/query_engine.h"
#include "util/cli.h"
#include "util/telemetry.h"
#include "util/version.h"

using namespace pivotscale;

namespace {

constexpr char kUsage[] =
    "pivotscale_serve: NDJSON clique-query server over .psx artifacts\n"
    "  request : {\"id\":1,\"graph\":\"g.psx\",\"k\":8}  (id required, >= 0)\n"
    "            optional keys: all_k, per_vertex, top,\n"
    "            deadline_ms (accepted; enforced by pivotscale_served)\n"
    "  response: {\"id\":1,\"ok\":true,\"k\":8,\"count\":\"...\",...}\n"
    "  a blank line flushes the pending lines as one deduplicated batch\n"
    "Build artifacts with pivotscale_prep; see docs/serving.md.\n";

struct PendingRequest {
  std::int64_t id = -1;
  bool parsed = false;
  std::string parse_error;
  ServiceQuery query;
};

// Parses the accumulated lines, runs the parseable ones as one batch, and
// writes one response line per request, in order.
void FlushBatch(QueryEngine& engine, std::vector<PendingRequest>* pending,
                std::ostream& out) {
  if (pending->empty()) return;
  std::vector<ServiceQuery> batch;
  for (const PendingRequest& req : *pending)
    if (req.parsed) batch.push_back(req.query);
  const std::vector<ServiceResult> results = engine.RunBatch(batch);
  std::size_t next_result = 0;
  for (const PendingRequest& req : *pending) {
    if (req.parsed)
      out << SerializeResponse(req.id, results[next_result++]) << '\n';
    else
      out << SerializeError(req.id, req.parse_error) << '\n';
  }
  out.flush();
  pending->clear();
}

// Turns one framed line into a pending request (or a pending error), or
// flushes on the blank line.
void ProcessLine(QueryEngine& engine, FramedLine&& line,
                 std::size_t max_line_bytes,
                 std::vector<PendingRequest>* pending, std::ostream& out) {
  PendingRequest req;
  if (line.oversized) {
    req.parse_error =
        "line exceeds " + std::to_string(max_line_bytes) + " bytes";
    pending->push_back(std::move(req));
    return;
  }
  if (line.text.empty()) {
    FlushBatch(engine, pending, out);
    return;
  }
  try {
    ProtocolRequest parsed = ParseRequest(line.text);
    req.id = parsed.id;
    req.query = std::move(parsed.query);
    req.parsed = true;
  } catch (const std::exception& e) {
    req.parse_error = e.what();
  }
  pending->push_back(std::move(req));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    args.RejectUnknown({"batch", "cache-bytes", "threads", "preload",
                        "max-line-bytes", "telemetry-json", "version",
                        "help"});
    if (args.GetBool("version", false)) {
      std::cout << "pivotscale_serve " << VersionString() << "\n";
      return 0;
    }
    if (args.GetBool("help", false)) {
      std::cout << kUsage;
      return 0;
    }

    const std::string telemetry_path = args.GetPath("telemetry-json", "");
    TelemetryRegistry telemetry;

    QueryEngineOptions options;
    options.cache_byte_budget = static_cast<std::size_t>(
        args.GetInt("cache-bytes", std::int64_t{1} << 30));
    options.num_threads = args.GetThreads();
    if (!telemetry_path.empty()) options.telemetry = &telemetry;
    QueryEngine engine(options);

    std::stringstream preload_list(args.GetString("preload", ""));
    std::string preload_path;
    while (std::getline(preload_list, preload_path, ',')) {
      if (preload_path.empty()) continue;
      engine.Preload(preload_path);
      std::cerr << "preloaded " << preload_path << "\n";
    }

    const std::string batch_path = args.GetPath("batch", "");
    std::ifstream batch_file;
    if (!batch_path.empty()) {
      batch_file.open(batch_path);
      if (!batch_file)
        throw std::runtime_error("cannot open --batch file " + batch_path);
    }
    std::istream& in = batch_path.empty() ? std::cin : batch_file;

    // Interactive stdin with no piped input: print usage so a bare run in
    // the examples loop terminates instead of blocking on a silent read.
    if (batch_path.empty() && isatty(fileno(stdin))) {
      std::cout << kUsage;
      return 0;
    }

    const std::size_t max_line_bytes = static_cast<std::size_t>(
        args.GetInt("max-line-bytes", static_cast<std::int64_t>(
                                          ReadLineFramer::kDefaultMaxLineBytes)));
    ReadLineFramer framer(max_line_bytes);
    std::vector<PendingRequest> pending;
    std::vector<FramedLine> lines;
    char buf[16384];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
      lines.clear();
      framer.Feed(buf, static_cast<std::size_t>(in.gcount()), &lines);
      for (FramedLine& line : lines)
        ProcessLine(engine, std::move(line), max_line_bytes, &pending,
                    std::cout);
    }
    FramedLine last;
    if (framer.Finish(&last))
      ProcessLine(engine, std::move(last), max_line_bytes, &pending,
                  std::cout);
    FlushBatch(engine, &pending, std::cout);

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

// TCP serving layer tests: the shared line framer (CRLF stripping,
// oversized-line shedding, arbitrary chunking, fuzz-lite garbage
// streams), the protocol's number ranges, the batch step (deadline checks
// at batch-group boundaries; a mixed corpus answered byte for byte as
// recorded), the bounded-admission worker pool (deterministic shed), the
// stdin front end (ServeStream: same bytes as ServeNetBatch), and a
// loopback NetServer driven by real concurrent sockets — counts
// bit-identical to standalone runs, overloaded batches shed once
// --queue-depth is exceeded, half-closed connections still get their
// responses, and drain flushes everything.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "net/event_loop.h"
#include "net/framer.h"
#include "net/worker_pool.h"
#include "pivot/pivotscale.h"
#include "service/protocol.h"
#include "service/query_engine.h"
#include "store/artifact.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace pivotscale {
namespace {

// ----------------------------------------------------------------- framer

std::vector<FramedLine> FeedAll(ReadLineFramer& framer,
                                const std::string& bytes,
                                std::size_t chunk) {
  std::vector<FramedLine> lines;
  for (std::size_t pos = 0; pos < bytes.size(); pos += chunk)
    framer.Feed(bytes.data() + pos, std::min(chunk, bytes.size() - pos),
                &lines);
  return lines;
}

TEST(Framer, SplitsLinesAndStripsCr) {
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3},
                            std::size_t{4096}}) {
    ReadLineFramer framer;
    const auto lines =
        FeedAll(framer, "alpha\r\nbeta\n\r\n\ngamma\n", chunk);
    ASSERT_EQ(lines.size(), 5u) << "chunk " << chunk;
    EXPECT_EQ(lines[0].text, "alpha");  // CRLF client
    EXPECT_EQ(lines[1].text, "beta");
    EXPECT_EQ(lines[2].text, "");  // "\r\n" is a blank (flush) line
    EXPECT_EQ(lines[3].text, "");
    EXPECT_EQ(lines[4].text, "gamma");
    for (const FramedLine& line : lines) EXPECT_FALSE(line.oversized);
  }
}

TEST(Framer, FinishFlushesFinalUnterminatedLine) {
  ReadLineFramer framer;
  std::vector<FramedLine> lines;
  framer.Feed("one\ntwo", 7, &lines);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(framer.buffered_bytes(), 3u);
  FramedLine last;
  ASSERT_TRUE(framer.Finish(&last));
  EXPECT_EQ(last.text, "two");
  EXPECT_FALSE(framer.Finish(&last));  // nothing pending anymore
}

TEST(Framer, OversizedLineIsDiscardedNotBuffered) {
  ReadLineFramer framer(8);
  const std::string big(1 << 16, 'x');
  std::vector<FramedLine> lines;
  framer.Feed(big.data(), big.size(), &lines);
  EXPECT_TRUE(lines.empty());
  // The whole 64 KiB line is being dropped, not accumulated.
  EXPECT_EQ(framer.buffered_bytes(), 0u);
  framer.Feed("tail\nok\n", 8, &lines);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0].oversized);
  EXPECT_TRUE(lines[0].text.empty());
  // Framing resumes cleanly on the next line.
  EXPECT_FALSE(lines[1].oversized);
  EXPECT_EQ(lines[1].text, "ok");

  // An oversized final line without a terminator surfaces via Finish.
  framer.Feed(big.data(), big.size(), &lines);
  FramedLine last;
  ASSERT_TRUE(framer.Finish(&last));
  EXPECT_TRUE(last.oversized);
}

TEST(Framer, ExactLimitLineStillParses) {
  ReadLineFramer framer(5);
  std::vector<FramedLine> lines;
  framer.Feed("12345\n123456\n", 13, &lines);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].text, "12345");
  EXPECT_TRUE(lines[1].oversized);
}

// Fuzz-lite: random byte soup (garbage, truncated JSON, interleaved CRLF,
// oversized runs) through the framer + ParseRequest must yield exactly
// one classification per line — parsed or error — with no exception other
// than the contracted std::runtime_error escaping.
TEST(Framer, FuzzLiteGarbageStreamsNeverEscape) {
  const char* fragments[] = {
      "{\"id\":1,\"graph\":\"g.psx\",\"k\":4}",
      "{\"id\":2,\"graph\":\"g.psx\"",  // truncated
      "{\"id\":-3,\"graph\":\"g.psx\"}",
      "\xff\xfe garbage \x01\x02",
      "{\"graph\":\"g.psx\",\"k\":0}",
      "not json at all",
      "{\"id\":7,\"graph\":\"g.psx\",\"deadline_ms\":12}",
      "",
  };
  Rng rng(1234);
  for (int round = 0; round < 50; ++round) {
    std::string stream;
    for (int piece = 0; piece < 40; ++piece) {
      switch (rng.Below(4)) {
        case 0:
          stream += fragments[rng.Below(8)];
          break;
        case 1: {  // random bytes, possibly containing terminators
          const std::size_t len = rng.Below(64);
          for (std::size_t b = 0; b < len; ++b)
            stream += static_cast<char>(rng.Below(256));
          break;
        }
        case 2:
          stream += std::string(rng.Below(3000), 'z');  // oversized runs
          break;
        default:
          stream += rng.Chance(0.5) ? "\r\n" : "\n";
          break;
      }
    }
    ReadLineFramer framer(1024);
    std::vector<FramedLine> lines =
        FeedAll(framer, stream, 1 + rng.Below(97));
    FramedLine last;
    if (framer.Finish(&last)) lines.push_back(std::move(last));
    for (const FramedLine& line : lines) {
      if (line.text.empty() && !line.oversized) continue;  // flush marker
      EXPECT_LE(line.text.size(), 1024u);
      std::string response;
      try {
        const ProtocolRequest req = ParseRequest(line.text);
        response = SerializeResponse(req.id, ServiceResult{});
      } catch (const std::runtime_error& e) {
        response = SerializeError(-1, e.what());
      }
      // Every response, including ones embedding hostile bytes, must be
      // valid JSON on one line.
      EXPECT_NO_THROW(ParseJson(response));
      EXPECT_EQ(response.find('\n'), std::string::npos);
    }
  }
}

// --------------------------------------------------------------- protocol

TEST(ProtocolId, MissingIdIsAParseError) {
  EXPECT_THROW(ParseRequest("{\"graph\":\"g.psx\",\"k\":4}"),
               std::runtime_error);
  try {
    ParseRequest("{\"graph\":\"g.psx\",\"k\":4}");
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("id"), std::string::npos);
  }
}

TEST(ProtocolId, NegativeIdIsAParseError) {
  EXPECT_THROW(ParseRequest("{\"id\":-1,\"graph\":\"g.psx\"}"),
               std::runtime_error);
  EXPECT_EQ(ParseRequest("{\"id\":0,\"graph\":\"g.psx\"}").id, 0);
}

TEST(ProtocolId, MagnitudeBeyondTwoToThe53IsOutOfRange) {
  for (const char* id : {"1e300", "-1e300", "1e16"}) {
    try {
      ParseRequest(std::string("{\"id\":") + id + ",\"graph\":\"g.psx\"}");
      ADD_FAILURE() << "id " << id << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "request key \"id\" out of range")
          << id;
    }
  }
  EXPECT_EQ(
      ParseRequest("{\"id\":9007199254740992,\"graph\":\"g.psx\"}").id,
      std::int64_t{1} << 53);
}

TEST(ProtocolDeadline, ParsesAndValidatesDeadline) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point before = Clock::now();
  const ProtocolRequest req =
      ParseRequest("{\"id\":4,\"graph\":\"g.psx\",\"deadline_ms\":250}");
  const Clock::time_point after = Clock::now();
  EXPECT_GE(req.query.deadline, before + std::chrono::milliseconds(250));
  EXPECT_LE(req.query.deadline, after + std::chrono::milliseconds(250));
  EXPECT_EQ(ParseRequest("{\"id\":4,\"graph\":\"g.psx\"}").query.deadline,
            Clock::time_point::max());
  EXPECT_THROW(
      ParseRequest("{\"id\":4,\"graph\":\"g.psx\",\"deadline_ms\":-5}"),
      std::runtime_error);
}

TEST(ProtocolDeadline, DeadlinePastTheClockRangeMeansNone) {
  // About 317 years and 2^53 ms: both overflow a nanosecond time_point.
  for (const char* ms : {"9999999999999", "9007199254740992"})
    EXPECT_EQ(ParseRequest(std::string("{\"id\":4,\"graph\":\"g.psx\","
                                       "\"deadline_ms\":") +
                           ms + "}")
                  .query.deadline,
              std::chrono::steady_clock::time_point::max())
        << ms;
}

TEST(ProtocolDeadline, MagnitudeBeyondTwoToThe53IsOutOfRange) {
  try {
    ParseRequest("{\"id\":4,\"graph\":\"g.psx\",\"deadline_ms\":1e300}");
    ADD_FAILURE() << "deadline_ms 1e300 was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "request key \"deadline_ms\" out of range");
  }
}

// ---------------------------------------------------- worker pool / batch

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EdgeList edges = Rmat(9, 6.0, 77);
    PlantCliques(&edges, 256, 6, 5, 9, 78);
    graph_ = BuildGraph(std::move(edges));
    artifact_path_ = ::testing::TempDir() + "/net_test.psx";
    WriteArtifact(artifact_path_, BuildArtifact(graph_));
  }
  void TearDown() override { std::remove(artifact_path_.c_str()); }

  BigCount Standalone(std::uint32_t k) {
    return CountKCliquesSimple(graph_, k);
  }

  Graph graph_;
  std::string artifact_path_;
};

ProtocolRequest MakeRequest(std::int64_t id, const std::string& graph,
                            std::uint32_t k) {
  ProtocolRequest req;
  req.id = id;
  req.query.graph = graph;
  req.query.k = k;
  return req;
}

TEST_F(NetTest, ServeNetBatchPreservesOrderAndHonorsDeadlines) {
  QueryEngine engine;
  TelemetryRegistry telemetry;
  std::vector<ProtocolRequest> requests;
  requests.push_back(MakeRequest(10, artifact_path_, 4));
  ProtocolRequest bad;
  bad.id = 11;
  bad.error = "unknown request key \"kk\"";
  requests.push_back(std::move(bad));
  ProtocolRequest expired = MakeRequest(12, artifact_path_, 5);
  expired.query.deadline = std::chrono::steady_clock::now() -
                           std::chrono::milliseconds(1);
  requests.push_back(std::move(expired));
  requests.push_back(MakeRequest(13, artifact_path_, 5));

  const std::string block = ServeNetBatch(engine, requests, &telemetry);
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = block.find('\n'); nl != std::string::npos;
       nl = block.find('\n', start)) {
    lines.push_back(block.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 4u);

  const JsonValue ok = ParseJson(lines[0]);
  EXPECT_EQ(ok.Find("id")->number, 10);
  EXPECT_EQ(ok.Find("count")->string_value, Standalone(4).ToString());
  const JsonValue parse_err = ParseJson(lines[1]);
  EXPECT_EQ(parse_err.Find("id")->number, 11);
  EXPECT_FALSE(parse_err.Find("ok")->bool_value);
  const JsonValue timed_out = ParseJson(lines[2]);
  EXPECT_EQ(timed_out.Find("error")->string_value, "deadline exceeded");
  const JsonValue ok2 = ParseJson(lines[3]);
  EXPECT_EQ(ok2.Find("count")->string_value, Standalone(5).ToString());

  EXPECT_EQ(telemetry.Counter("net.timed_out"), 1u);
  EXPECT_EQ(telemetry.Counter("net.requests"), 4u);
}

// ------------------------------------------------------ stdin front end

std::vector<std::string> SplitLines(const std::string& block) {
  std::vector<std::string> lines;
  std::istringstream in(block);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Zeroes the engine wall time, the one response field that differs
// between two otherwise identical runs.
std::string ZeroSeconds(const std::string& block) {
  const std::string key = "\"seconds\":";
  std::string out;
  std::size_t from = 0;
  for (std::size_t at = block.find(key); at != std::string::npos;
       at = block.find(key, from)) {
    out.append(block, from, at + key.size() - from);
    out += '0';
    from = block.find_first_of(",}", at + key.size());
  }
  out.append(block, from, std::string::npos);
  return out;
}

TEST_F(NetTest, ServeStreamFramesParsesAndFlushesLikeServeNetBatch) {
  constexpr std::size_t kMaxLineBytes = 1024;
  const std::string graph = "\"graph\":\"" + artifact_path_ + "\"";
  ASSERT_LT(graph.size() + 32, kMaxLineBytes);
  // First batch (ended by the blank line): a CRLF request, an oversized
  // line, a parse error, and an already-expired request. Second batch:
  // one final line with no newline, flushed by EOF.
  const std::vector<std::string> first = {
      "{\"id\":1," + graph + ",\"k\":4}\r",
      std::string(kMaxLineBytes + 1, 'x'),
      "{\"id\":2," + graph + ",\"kk\":4}",
      "{\"id\":3," + graph + ",\"k\":5,\"deadline_ms\":0}",
  };
  const std::string last = "{\"id\":4," + graph + ",\"k\":5}";
  std::string input;
  for (const std::string& line : first) input += line + "\n";
  input += "\n" + last;

  TelemetryRegistry telemetry;
  QueryEngineOptions engine_options;
  engine_options.telemetry = &telemetry;
  QueryEngine engine(engine_options);
  std::istringstream in(input);
  std::ostringstream out;
  ServeStream(in, out, engine, kMaxLineBytes, &telemetry);

  const std::vector<std::string> lines = SplitLines(out.str());
  ASSERT_EQ(lines.size(), 5u);
  const JsonValue crlf = ParseJson(lines[0]);
  EXPECT_EQ(crlf.Find("id")->number, 1);
  EXPECT_EQ(crlf.Find("count")->string_value, Standalone(4).ToString());
  const JsonValue oversized = ParseJson(lines[1]);
  EXPECT_EQ(oversized.Find("id")->number, -1);
  EXPECT_EQ(oversized.Find("error")->string_value, "line exceeds 1024 bytes");
  const JsonValue parse_err = ParseJson(lines[2]);
  EXPECT_EQ(parse_err.Find("id")->number, -1);
  EXPECT_FALSE(parse_err.Find("ok")->bool_value);
  const JsonValue expired = ParseJson(lines[3]);
  EXPECT_EQ(expired.Find("id")->number, 3);
  EXPECT_EQ(expired.Find("error")->string_value, "deadline exceeded");
  const JsonValue eof = ParseJson(lines[4]);
  EXPECT_EQ(eof.Find("id")->number, 4);
  EXPECT_EQ(eof.Find("count")->string_value, Standalone(5).ToString());
  EXPECT_EQ(telemetry.Counter("net.batches"), 2u);
  EXPECT_EQ(telemetry.Counter("net.timed_out"), 1u);
  // Each span name holds one record however many batches ran.
  const TelemetrySnapshot snap = telemetry.Snapshot();
  for (const char* name : {"net.batch", "service.batch"}) {
    ASSERT_EQ(snap.spans.count(name), 1u) << name;
    EXPECT_EQ(snap.spans.at(name).count, 2u) << name;
  }

  // The same lines handed straight to ServeNetBatch, batch by batch, on a
  // fresh engine: the stream adds framing and batching, nothing else.
  QueryEngine reference_engine;
  std::string reference;
  for (const std::vector<std::string>& batch_lines :
       {first, std::vector<std::string>{last}}) {
    std::vector<ProtocolRequest> batch;
    for (const std::string& text : batch_lines) {
      FramedLine line;
      if (text.size() > kMaxLineBytes)
        line.oversized = true;
      else
        line.text = text.back() == '\r' ? text.substr(0, text.size() - 1)
                                        : text;
      batch.push_back(*ToRequest(std::move(line), kMaxLineBytes));
    }
    reference += ServeNetBatch(reference_engine, batch, nullptr);
  }
  EXPECT_EQ(ZeroSeconds(out.str()), ZeroSeconds(reference));
}

// A two-batch corpus (split by the blank line) that mixes two graphs,
// parse errors, a request invalid for the engine, expired requests — one
// on a missing artifact, one with both per_vertex and all_k — and, in the
// second batch, cache hits and a memo hit.
std::string MixedCorpus(const std::string& path_a, const std::string& path_b) {
  const std::string a = "\"graph\":\"" + path_a + "\"";
  const std::string b = "\"graph\":\"" + path_b + "\"";
  const std::string missing = "\"graph\":\"/nonexistent/missing.psx\"";
  const std::vector<std::string> lines = {
      "{\"id\":1," + a + ",\"k\":4}",
      "{\"id\":2," + missing + ",\"k\":4,\"deadline_ms\":0}",
      "{\"id\":3," + a + ",\"k\":5,\"per_vertex\":true,\"all_k\":true,"
      "\"deadline_ms\":0}",
      "{\"id\":4," + b + ",\"k\":3,\"deadline_ms\":60000}",
      "{\"id\":5," + a + ",\"kk\":4}",
      "not json",
      "{\"id\":7," + a + ",\"k\":3,\"per_vertex\":true,\"all_k\":true}",
      "{\"id\":8," + b + ",\"all_k\":true}",
      "",
      "{\"id\":9," + a + ",\"k\":3}",
      "{\"id\":10," + b + ",\"k\":5}",
      "{\"id\":11," + a + ",\"k\":4,\"per_vertex\":true,\"top\":3}",
      "{\"id\":12," + missing + ",\"k\":4,\"deadline_ms\":0}",
      "{\"id\":13," + a + ",\"k\":6}",
      "{\"id\":14," + b + ",\"k\":4,\"per_vertex\":true,\"all_k\":true,"
      "\"deadline_ms\":0}",
  };
  std::string corpus;
  for (const std::string& line : lines) corpus += line + "\n";
  return corpus;
}

TEST_F(NetTest, MixedCorpusAnswersAsRecorded) {
  const std::string second_path =
      ::testing::TempDir() + "/net_test_second.psx";
  WriteArtifact(second_path, BuildArtifact(BuildGraph(Rmat(7, 4.0, 5))));
  const std::string corpus = MixedCorpus(artifact_path_, second_path);
  // Recorded from the server that grouped a batch in the net layer and
  // again in the engine, "seconds" zeroed: grouping and deadline checks
  // in the engine alone must answer the same bytes.
  const std::vector<std::string> recorded = {
      R"({"id":1,"ok":true,"k":4,"count":"2016","cache_hit":false,)"
      R"("memo_hit":false,"seconds":0})",
      R"({"id":2,"ok":false,"error":"deadline exceeded"})",
      R"({"id":3,"ok":false,"error":"deadline exceeded"})",
      R"({"id":4,"ok":true,"k":3,"count":"118","cache_hit":false,)"
      R"("memo_hit":false,"seconds":0})",
      R"({"id":-1,"ok":false,"error":"unknown request key \"kk\""})",
      R"({"id":-1,"ok":false,)"
      R"("error":"ParseJson: bad literal at byte 0"})",
      R"({"id":7,"ok":false,)"
      R"("error":"per_vertex and all_k are mutually exclusive"})",
      R"({"id":8,"ok":true,"k":8,"count":"0","per_size":[{"size":1,)"
      R"("count":"125"},{"size":2,"count":"204"},{"size":3,)"
      R"("count":"118"},{"size":4,"count":"27"},{"size":5,)"
      R"("count":"2"}],"cache_hit":false,"memo_hit":false,"seconds":0})",
      R"({"id":9,"ok":true,"k":3,"count":"2086","cache_hit":true,)"
      R"("memo_hit":false,"seconds":0})",
      R"({"id":10,"ok":true,"k":5,"count":"2","cache_hit":true,)"
      R"("memo_hit":true,"seconds":0})",
      R"({"id":11,"ok":true,"k":4,"count":"2016",)"
      R"("top_vertices":[{"vertex":0,"count":"851"},{"vertex":128,)"
      R"("count":"479"},{"vertex":8,"count":"437"}],"cache_hit":true,)"
      R"("memo_hit":false,"seconds":0})",
      R"({"id":12,"ok":false,"error":"deadline exceeded"})",
      R"({"id":13,"ok":true,"k":6,"count":"534","cache_hit":true,)"
      R"("memo_hit":false,"seconds":0})",
      R"({"id":14,"ok":false,"error":"deadline exceeded"})",
  };
  std::string expected;
  for (const std::string& line : recorded) expected += line + "\n";

  QueryEngine stream_engine;
  std::istringstream in(corpus);
  std::ostringstream out;
  ServeStream(in, out, stream_engine, 1024, nullptr);
  EXPECT_EQ(ZeroSeconds(out.str()), expected);

  QueryEngine batch_engine;
  std::string served;
  std::vector<ProtocolRequest> batch;
  std::istringstream lines(corpus);
  for (std::string text; std::getline(lines, text);) {
    FramedLine line;
    line.text = text;
    std::optional<ProtocolRequest> req = ToRequest(std::move(line), 1024);
    if (req) {
      batch.push_back(std::move(*req));
    } else {
      served += ServeNetBatch(batch_engine, batch, nullptr);
      batch.clear();
    }
  }
  served += ServeNetBatch(batch_engine, batch, nullptr);
  EXPECT_EQ(ZeroSeconds(served), expected);
  std::remove(second_path.c_str());
}

TEST_F(NetTest, ServeStreamCountsUnderAFarFutureDeadline) {
  // 9999999999999 ms is about 317 years: past what the steady clock holds
  // in nanoseconds, so the request carries no deadline and is counted.
  std::istringstream in("{\"id\":1,\"graph\":\"" + artifact_path_ +
                        "\",\"k\":4,\"deadline_ms\":9999999999999}\n");
  std::ostringstream out;
  QueryEngine engine;
  ServeStream(in, out, engine, ReadLineFramer::kDefaultMaxLineBytes,
              nullptr);
  const std::vector<std::string> lines = SplitLines(out.str());
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue served = ParseJson(lines[0]);
  EXPECT_TRUE(served.Find("ok")->bool_value) << lines[0];
  EXPECT_EQ(served.Find("count")->string_value, Standalone(4).ToString());
}

TEST_F(NetTest, ServeStreamAnswersDeepNestingWithAnErrorAndGoesOn) {
  // 100,000 nested arrays would overflow a parser that recursed without a
  // limit; the line must get a parse error and the next request its count.
  std::istringstream in(std::string(100000, '[') +
                        "\n{\"id\":2,\"graph\":\"" + artifact_path_ +
                        "\",\"k\":4}\n");
  std::ostringstream out;
  QueryEngine engine;
  ServeStream(in, out, engine, ReadLineFramer::kDefaultMaxLineBytes,
              nullptr);
  const std::vector<std::string> lines = SplitLines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue deep = ParseJson(lines[0]);
  EXPECT_FALSE(deep.Find("ok")->bool_value);
  EXPECT_NE(deep.Find("error")->string_value.find("nesting deeper than 64"),
            std::string::npos)
      << lines[0];
  const JsonValue next = ParseJson(lines[1]);
  EXPECT_TRUE(next.Find("ok")->bool_value) << lines[1];
  EXPECT_EQ(next.Find("count")->string_value, Standalone(4).ToString());
}

TEST(ServeStream, EmptyInputAndBlankLinesWriteNothing) {
  QueryEngine engine;
  for (const char* input : {"", "\n", "\r\n\n\n"}) {
    std::istringstream in(input);
    std::ostringstream out;
    ServeStream(in, out, engine, ReadLineFramer::kDefaultMaxLineBytes,
                nullptr);
    EXPECT_EQ(out.str(), "") << "input: " << input;
  }
}

TEST_F(NetTest, WorkerPoolShedsDeterministicallyWhenQueueFull) {
  QueryEngine engine;
  // Completion callback blocks, pinning the single worker: admission
  // state becomes fully deterministic.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  std::atomic<int> completed{0};
  WorkerPoolOptions options;
  options.workers = 1;
  options.queue_depth = 1;
  WorkerPool pool(&engine, options,
                  [&](std::uint64_t, std::string) {
                    ++entered;
                    std::unique_lock<std::mutex> lock(mutex);
                    cv.wait(lock, [&] { return release; });
                    ++completed;
                  });

  NetBatch first;
  first.connection_id = 1;
  first.requests.push_back(MakeRequest(1, artifact_path_, 3));
  ASSERT_TRUE(pool.TrySubmit(std::move(first)));
  // Wait until the worker has dequeued batch 1 and is pinned inside the
  // callback, so the queue itself is empty again.
  while (entered.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  NetBatch second;
  second.connection_id = 2;
  second.requests.push_back(MakeRequest(2, artifact_path_, 3));
  NetBatch third;
  third.connection_id = 3;
  third.requests.push_back(MakeRequest(3, artifact_path_, 3));
  // Worker busy + queue depth 1: one queues, the next must shed.
  bool second_in = pool.TrySubmit(std::move(second));
  bool third_in = pool.TrySubmit(std::move(third));
  EXPECT_TRUE(second_in);
  EXPECT_FALSE(third_in);

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  pool.Drain();
  EXPECT_EQ(completed.load(), 2);
  EXPECT_GE(pool.queue_high_water(), 1u);
}

// ------------------------------------------------------- loopback server

// Blocking client helper: connect, send, optionally half-close, read
// `expect_lines` non-blank response lines.
class LoopbackClient {
 public:
  explicit LoopbackClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~LoopbackClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void Send(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  void HalfClose() { ::shutdown(fd_, SHUT_WR); }

  std::vector<std::string> ReadLines(std::size_t expect_lines) {
    std::vector<std::string> result;
    char buf[4096];
    std::vector<FramedLine> lines;
    while (result.size() < expect_lines) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      lines.clear();
      framer_.Feed(buf, static_cast<std::size_t>(n), &lines);
      for (FramedLine& line : lines)
        if (!line.text.empty()) result.push_back(std::move(line.text));
    }
    return result;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  ReadLineFramer framer_;
};

std::string RequestLine(std::int64_t id, const std::string& graph,
                        std::uint32_t k) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.Value(id);
  w.Key("graph");
  w.Value(graph);
  w.Key("k");
  w.Value(static_cast<std::uint64_t>(k));
  w.EndObject();
  return w.str() + "\n";
}

class LoopbackServer {
 public:
  LoopbackServer(QueryEngine* engine, NetServerOptions options)
      : server_(engine, std::move(options)) {
    server_.Start();
    thread_ = std::thread([this] { server_.Run(); });
  }
  ~LoopbackServer() { Stop(); }
  void Stop() {
    if (thread_.joinable()) {
      server_.RequestDrain();
      thread_.join();
    }
  }
  std::uint16_t port() const { return server_.port(); }

 private:
  NetServer server_;
  std::thread thread_;
};

TEST_F(NetTest, ConcurrentClientsGetBitIdenticalCounts) {
  QueryEngine engine;
  TelemetryRegistry telemetry;
  NetServerOptions options;
  options.telemetry = &telemetry;
  options.workers = 2;
  std::map<std::uint32_t, std::string> expected;
  for (std::uint32_t k = 3; k <= 8; ++k)
    expected[k] = Standalone(k).ToString();

  {
    LoopbackServer server(&engine, options);
    std::vector<std::thread> clients;
    std::vector<std::string> failures(8);
    for (int c = 0; c < 8; ++c) {
      clients.emplace_back([&, c] {
        LoopbackClient client(server.port());
        if (!client.connected()) {
          failures[c] = "connect failed";
          return;
        }
        std::string payload;
        for (std::uint32_t k = 3; k <= 8; ++k)
          payload += RequestLine(c * 100 + k, artifact_path_, k);
        payload += "\n";
        client.Send(payload);
        const std::vector<std::string> lines = client.ReadLines(6);
        if (lines.size() != 6) {
          failures[c] = "expected 6 responses, got " +
                        std::to_string(lines.size());
          return;
        }
        for (const std::string& line : lines) {
          const JsonValue doc = ParseJson(line);
          if (!doc.Find("ok")->bool_value) {
            failures[c] = "response not ok: " + line;
            return;
          }
          const std::uint32_t k =
              static_cast<std::uint32_t>(doc.Find("k")->number);
          if (doc.Find("count")->string_value != expected[k]) {
            failures[c] = "count mismatch at k=" + std::to_string(k);
            return;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (const std::string& failure : failures) EXPECT_EQ(failure, "");
    server.Stop();  // graceful drain must leave nothing behind
  }
  EXPECT_EQ(telemetry.Counter("net.accepted"), 8u);
  EXPECT_EQ(telemetry.Counter("net.requests"), 48u);
  EXPECT_EQ(telemetry.Counter("net.shed"), 0u);
  EXPECT_EQ(telemetry.Gauge("net.active"), 0.0);
}

TEST_F(NetTest, HalfClosedConnectionStillGetsItsResponses) {
  QueryEngine engine;
  LoopbackServer server(&engine, NetServerOptions{});
  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());
  // No trailing blank line: EOF (the half-close) must flush the batch.
  client.Send(RequestLine(1, artifact_path_, 4));
  client.HalfClose();
  const std::vector<std::string> lines = client.ReadLines(1);
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue doc = ParseJson(lines[0]);
  EXPECT_TRUE(doc.Find("ok")->bool_value);
  EXPECT_EQ(doc.Find("count")->string_value, Standalone(4).ToString());
}

TEST_F(NetTest, OversizedAndMalformedLinesAnswerPerLineErrors) {
  QueryEngine engine;
  NetServerOptions options;
  options.max_line_bytes = 128;
  LoopbackServer server(&engine, options);
  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());
  std::string payload;
  payload += std::string(4096, 'x') + "\n";        // oversized
  payload += "{\"graph\":\"g.psx\",\"k\":4}\n";    // missing id
  payload += RequestLine(3, artifact_path_, 3);    // fine
  payload += "\n";
  client.Send(payload);
  const std::vector<std::string> lines = client.ReadLines(3);
  ASSERT_EQ(lines.size(), 3u);
  const JsonValue oversized = ParseJson(lines[0]);
  EXPECT_FALSE(oversized.Find("ok")->bool_value);
  EXPECT_NE(oversized.Find("error")->string_value.find("exceeds"),
            std::string::npos);
  const JsonValue no_id = ParseJson(lines[1]);
  EXPECT_FALSE(no_id.Find("ok")->bool_value);
  const JsonValue ok = ParseJson(lines[2]);
  EXPECT_TRUE(ok.Find("ok")->bool_value);
  EXPECT_EQ(ok.Find("count")->string_value, Standalone(3).ToString());
}

TEST_F(NetTest, PipelinedOverloadShedsPastQueueDepth) {
  // Cold counting runs keep the single worker busy for milliseconds per
  // batch (cache-bytes 1 evicts the artifact and its memo between the
  // two alternating artifacts), while the I/O thread parses the whole
  // pipelined stream in microseconds — so with queue depth 1 most of the
  // 24 batches must shed, and every request still gets exactly one
  // response.
  const std::string second_path = ::testing::TempDir() + "/net_b.psx";
  EdgeList edges = Rmat(9, 6.0, 91);
  PlantCliques(&edges, 256, 6, 5, 9, 92);
  WriteArtifact(second_path, BuildArtifact(BuildGraph(std::move(edges))));

  TelemetryRegistry telemetry;
  QueryEngineOptions engine_options;
  engine_options.cache_byte_budget = 1;
  QueryEngine engine(engine_options);
  NetServerOptions options;
  options.workers = 1;
  options.queue_depth = 1;
  options.telemetry = &telemetry;
  LoopbackServer server(&engine, options);

  constexpr int kBatches = 24;
  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());
  std::string payload;
  for (int b = 0; b < kBatches; ++b) {
    payload += RequestLine(b, b % 2 == 0 ? artifact_path_ : second_path,
                           8);
    payload += "\n";
  }
  client.Send(payload);
  client.HalfClose();
  const std::vector<std::string> lines = client.ReadLines(kBatches);
  std::remove(second_path.c_str());
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kBatches));

  int ok = 0, shed = 0;
  for (const std::string& line : lines) {
    const JsonValue doc = ParseJson(line);
    if (doc.Find("ok")->bool_value) {
      ++ok;
    } else {
      ASSERT_NE(doc.Find("error"), nullptr) << line;
      EXPECT_EQ(doc.Find("error")->string_value, "overloaded");
      ++shed;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);
  EXPECT_EQ(ok + shed, kBatches);
  EXPECT_EQ(telemetry.Counter("net.shed"),
            static_cast<std::uint64_t>(shed));
}

TEST_F(NetTest, DeadlineZeroExpiresBeforeCounting) {
  QueryEngine engine;
  TelemetryRegistry telemetry;
  NetServerOptions options;
  options.telemetry = &telemetry;
  LoopbackServer server(&engine, options);
  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send("{\"id\":1,\"graph\":\"" + artifact_path_ +
              "\",\"k\":4,\"deadline_ms\":0}\n{\"id\":2,\"graph\":\"" +
              artifact_path_ + "\",\"k\":4}\n\n");
  client.HalfClose();
  const std::vector<std::string> lines = client.ReadLines(2);
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue expired = ParseJson(lines[0]);
  EXPECT_FALSE(expired.Find("ok")->bool_value);
  EXPECT_EQ(expired.Find("error")->string_value, "deadline exceeded");
  const JsonValue served = ParseJson(lines[1]);
  EXPECT_TRUE(served.Find("ok")->bool_value);
  EXPECT_EQ(served.Find("count")->string_value,
            Standalone(4).ToString());
  EXPECT_EQ(telemetry.Counter("net.timed_out"), 1u);
}

}  // namespace
}  // namespace pivotscale

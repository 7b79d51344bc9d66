// Query-service tests: a batch of mixed-k queries against a preloaded
// .psx artifact must skip the heuristic/ordering/directionalize phases
// entirely (no such telemetry spans), answer every same-graph k-query from
// one kAllUpToK counting run, and return counts bit-identical to
// standalone CountKCliques runs — plus LRU eviction, cross-batch
// memoization, concurrent batches, and the NDJSON protocol.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "pivot/pivotscale.h"
#include "service/protocol.h"
#include "service/query_engine.h"
#include "store/artifact.h"
#include "util/json_writer.h"
#include "util/telemetry.h"

namespace pivotscale {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Graph CliqueRichGraph(std::uint64_t seed) {
  EdgeList edges = Rmat(9, 6.0, seed);
  PlantCliques(&edges, 512, 6, 5, 9, seed + 1);
  return BuildGraph(std::move(edges));
}

// Ground truth from the standalone pipeline, bit-identical by contract.
BigCount Standalone(const Graph& g, std::uint32_t k) {
  return CountKCliquesSimple(g, k);
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = CliqueRichGraph(11);
    artifact_file_ = std::make_unique<TempFile>("service_a.psx");
    WriteArtifact(artifact_file_->path(), BuildArtifact(graph_));
  }

  Graph graph_;
  std::unique_ptr<TempFile> artifact_file_;
};

// ------------------------------------------------- the acceptance batch

TEST_F(ServiceTest, MixedKBatchOneCountRunNoPipelinePhases) {
  TelemetryRegistry telemetry;
  QueryEngineOptions options;
  options.telemetry = &telemetry;
  QueryEngine engine(options);
  engine.Preload(artifact_file_->path());

  // 16 mixed-k queries, all against the preloaded artifact.
  std::vector<ServiceQuery> batch;
  const std::uint32_t ks[16] = {3, 8, 5, 4, 6, 3, 7, 5,
                                9, 4, 8, 6, 3, 7, 9, 5};
  for (std::uint32_t k : ks)
    batch.push_back({artifact_file_->path(), k});

  const std::vector<ServiceResult> results = engine.RunBatch(batch);
  ASSERT_EQ(results.size(), 16u);

  std::map<std::uint32_t, BigCount> expected;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].error;
    EXPECT_TRUE(results[i].artifact_cache_hit);
    const std::uint32_t k = ks[i];
    if (expected.count(k) == 0) expected[k] = Standalone(graph_, k);
    EXPECT_EQ(results[i].total, expected[k]) << "k=" << k;
  }

  // The preprocessed phases never ran: serving goes straight to counting.
  EXPECT_FALSE(telemetry.HasSpan("heuristic"));
  EXPECT_FALSE(telemetry.HasSpan("ordering"));
  EXPECT_FALSE(telemetry.HasSpan("directionalize"));
  EXPECT_TRUE(telemetry.HasSpan("service.count"));

  // One kAllUpToK run answered all 16 k-queries.
  EXPECT_EQ(telemetry.Counter("service.count_runs"), 1u);
  EXPECT_EQ(telemetry.Counter("service.queries"), 16u);
  EXPECT_EQ(telemetry.Counter("service.errors"), 0u);
}

TEST_F(ServiceTest, SecondBatchIsAllMemoHits) {
  TelemetryRegistry telemetry;
  QueryEngineOptions options;
  options.telemetry = &telemetry;
  QueryEngine engine(options);

  std::vector<ServiceQuery> batch;
  for (std::uint32_t k : {4u, 6u, 8u})
    batch.push_back({artifact_file_->path(), k});
  const auto first = engine.RunBatch(batch);
  for (const auto& r : first) EXPECT_FALSE(r.memo_hit);
  const auto second = engine.RunBatch(batch);
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_TRUE(second[i].memo_hit);
    EXPECT_EQ(second[i].total, first[i].total);
  }
  EXPECT_EQ(telemetry.Counter("service.count_runs"), 1u);
  EXPECT_EQ(telemetry.Counter("service.memo_hits"), 3u);

  // A larger k than covered forces exactly one more run.
  ServiceQuery bigger{artifact_file_->path(), 10};
  const auto third = engine.RunQuery(bigger);
  EXPECT_TRUE(third.ok);
  EXPECT_FALSE(third.memo_hit);
  EXPECT_EQ(third.total, Standalone(graph_, 10));
  EXPECT_EQ(telemetry.Counter("service.count_runs"), 2u);
}

TEST_F(ServiceTest, AllKAndPerVertexQueries) {
  QueryEngine engine;

  ServiceQuery all_k{artifact_file_->path(), 5};
  all_k.all_k = true;
  const ServiceResult r = engine.RunQuery(all_k);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.total, Standalone(graph_, 5));

  PivotScaleOptions pipeline;
  pipeline.count.mode = CountMode::kAllK;
  const PivotScaleResult direct = CountKCliques(graph_, pipeline);
  ASSERT_GE(r.per_size.size(), 4u);
  for (std::size_t s = 1; s < r.per_size.size(); ++s)
    EXPECT_EQ(r.per_size[s], direct.count.per_size[s]) << "size " << s;
  // Sizes beyond the response are zero in the direct run too.
  for (std::size_t s = r.per_size.size();
       s < direct.count.per_size.size(); ++s)
    EXPECT_EQ(direct.count.per_size[s], BigCount{}) << "size " << s;

  // Per-vertex: top list must match a standalone per-vertex run.
  ServiceQuery pv{artifact_file_->path(), 5};
  pv.per_vertex = true;
  pv.top = 5;
  const ServiceResult pr = engine.RunQuery(pv);
  ASSERT_TRUE(pr.ok) << pr.error;
  EXPECT_EQ(pr.total, Standalone(graph_, 5));
  ASSERT_EQ(pr.top_vertices.size(), 5u);

  PivotScaleOptions pv_pipeline;
  pv_pipeline.k = 5;
  pv_pipeline.count.per_vertex = true;
  const auto& direct_pv = CountKCliques(graph_, pv_pipeline).count.per_vertex;
  for (std::size_t t = 0; t < pr.top_vertices.size(); ++t) {
    EXPECT_EQ(pr.top_vertices[t].count,
              direct_pv[pr.top_vertices[t].vertex]);
    if (t > 0) {
      EXPECT_GE(pr.top_vertices[t - 1].count, pr.top_vertices[t].count);
    }
  }
}

TEST_F(ServiceTest, ConcurrentMixedKBatchesStayCorrect) {
  // A second artifact so batches contend on the cache map too.
  const Graph graph_b = CliqueRichGraph(23);
  TempFile file_b("service_b.psx");
  WriteArtifact(file_b.path(), BuildArtifact(graph_b));

  std::map<std::uint32_t, BigCount> expected_a, expected_b;
  for (std::uint32_t k = 3; k <= 8; ++k) {
    expected_a[k] = Standalone(graph_, k);
    expected_b[k] = Standalone(graph_b, k);
  }

  QueryEngine engine;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<ServiceQuery> batch;
      for (std::uint32_t k = 3; k <= 8; ++k) {
        batch.push_back({artifact_file_->path(), k});
        batch.push_back({file_b.path(), k});
      }
      const auto results = engine.RunBatch(batch);
      for (std::size_t i = 0; i < results.size(); ++i) {
        const std::uint32_t k = batch[i].k;
        const bool is_a = batch[i].graph == artifact_file_->path();
        const BigCount want = is_a ? expected_a[k] : expected_b[k];
        if (!results[i].ok || results[i].total != want) {
          failures[t] =
              "thread " + std::to_string(t) + " graph " +
              (is_a ? "a" : "b") + " k=" + std::to_string(k) +
              (results[i].ok ? std::string(" wrong count")
                             : " failed: " + results[i].error);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
}

TEST_F(ServiceTest, LruEvictionRespectsByteBudget) {
  const Graph graph_b = CliqueRichGraph(31);
  TempFile file_b("service_evict.psx");
  WriteArtifact(file_b.path(), BuildArtifact(graph_b));

  TelemetryRegistry telemetry;
  QueryEngineOptions options;
  // Budget fits one artifact but not two.
  options.cache_byte_budget = BuildArtifact(graph_).HeapBytes() * 3 / 2;
  options.telemetry = &telemetry;
  QueryEngine engine(options);

  EXPECT_EQ(engine.RunQuery({artifact_file_->path(), 4}).total,
            Standalone(graph_, 4));
  EXPECT_EQ(engine.CachedArtifacts(), 1u);
  EXPECT_EQ(engine.RunQuery({file_b.path(), 4}).total,
            Standalone(graph_b, 4));
  EXPECT_EQ(engine.CachedArtifacts(), 1u);  // the first was evicted
  EXPECT_GE(telemetry.Counter("service.evictions"), 1u);
  EXPECT_LE(engine.CachedBytes(), options.cache_byte_budget);

  // The evicted artifact still serves (reload path) — and correctly.
  const ServiceResult again = engine.RunQuery({artifact_file_->path(), 5});
  ASSERT_TRUE(again.ok);
  EXPECT_FALSE(again.artifact_cache_hit);
  EXPECT_EQ(again.total, Standalone(graph_, 5));
}

TEST_F(ServiceTest, PerQueryErrorsDoNotPoisonTheBatch) {
  QueryEngine engine;
  std::vector<ServiceQuery> batch;
  batch.push_back({artifact_file_->path(), 4});
  batch.push_back({::testing::TempDir() + "/missing.psx", 4});
  ServiceQuery bad_k{artifact_file_->path(), 0};
  batch.push_back(bad_k);
  const auto results = engine.RunBatch(batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(results[0].total, Standalone(graph_, 4));
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("cannot open"), std::string::npos);
  EXPECT_FALSE(results[2].ok);
  EXPECT_NE(results[2].error.find("k must be >= 1"), std::string::npos);
}

// --------------------------------------------------------------- protocol

TEST(Protocol, ParsesFullRequest) {
  const ProtocolRequest req = ParseRequest(
      "{\"id\": 7, \"graph\": \"g.psx\", \"k\": 6, \"per_vertex\": true, "
      "\"top\": 3}");
  EXPECT_EQ(req.id, 7);
  EXPECT_EQ(req.query.graph, "g.psx");
  EXPECT_EQ(req.query.k, 6u);
  EXPECT_TRUE(req.query.per_vertex);
  EXPECT_EQ(req.query.top, 3u);
  EXPECT_FALSE(req.query.all_k);
}

TEST(Protocol, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(ParseRequest("{\"graph\": \"g.psx\", \"per_vertx\": true}"),
               std::runtime_error);
  EXPECT_THROW(ParseRequest("{\"k\": 5}"), std::runtime_error);
  EXPECT_THROW(ParseRequest("{\"graph\": \"g.psx\", \"k\": 0}"),
               std::runtime_error);
  EXPECT_THROW(ParseRequest("{\"graph\": \"g.psx\", \"k\": 2.5}"),
               std::runtime_error);
  // Execution hints are not part of the protocol.
  EXPECT_THROW(ParseRequest("{\"id\": 1, \"graph\": \"g.psx\", "
                            "\"structure\": \"dense\"}"),
               std::runtime_error);
  EXPECT_THROW(ParseRequest("not json"), std::runtime_error);
}

TEST(Protocol, ResponseRoundTripsThroughTheJsonParser) {
  ServiceResult result;
  result.ok = true;
  result.k = 8;
  result.total = BigCount{12345};
  result.artifact_cache_hit = true;
  result.memo_hit = false;
  result.seconds = 0.25;
  result.top_vertices.push_back({17, BigCount{99}});
  const std::string line = SerializeResponse(3, result);
  const JsonValue doc = ParseJson(line);
  ASSERT_TRUE(doc.IsObject());
  EXPECT_EQ(doc.Find("id")->number, 3);
  EXPECT_TRUE(doc.Find("ok")->bool_value);
  EXPECT_EQ(doc.Find("count")->string_value, "12345");
  EXPECT_TRUE(doc.Find("cache_hit")->bool_value);
  const JsonValue* top = doc.Find("top_vertices");
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(top->array.size(), 1u);
  EXPECT_EQ(top->array[0].Find("vertex")->number, 17);
  EXPECT_EQ(top->array[0].Find("count")->string_value, "99");

  ServiceResult failed;
  failed.error = "artifact missing";
  const JsonValue err = ParseJson(SerializeResponse(-1, failed));
  EXPECT_FALSE(err.Find("ok")->bool_value);
  EXPECT_EQ(err.Find("error")->string_value, "artifact missing");
}

}  // namespace
}  // namespace pivotscale

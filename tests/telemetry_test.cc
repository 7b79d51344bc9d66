// Tests for the run-telemetry subsystem: the registry, the JSON
// writer/parser pair, and the full pipeline's run report schema.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/dag.h"
#include "graph/generators.h"
#include "order/heuristic.h"
#include "order/ordering.h"
#include "pivot/count.h"
#include "pivot/pivotscale.h"
#include "util/json_writer.h"
#include "util/telemetry.h"

namespace pivotscale {
namespace {

// ------------------------------------------------------------- JsonWriter

TEST(JsonWriter, BuildsNestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.Value("run \"1\"\n");
  w.Key("count");
  w.Value(std::uint64_t{42});
  w.Key("ratio");
  w.Value(0.5);
  w.Key("flags");
  w.BeginArray();
  w.Value(true);
  w.Null();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"run \\\"1\\\"\\n\",\"count\":42,\"ratio\":0.5,"
            "\"flags\":[true,null]}");
}

TEST(JsonWriter, RejectsMalformedStructure) {
  JsonWriter w;
  w.BeginObject();
  EXPECT_THROW(w.Value(1.0), std::logic_error);   // value without Key
  EXPECT_THROW(w.EndArray(), std::logic_error);   // wrong closer
  EXPECT_THROW(w.str(), std::logic_error);        // unclosed document
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Key("pi");
  w.Value(3.25);
  w.Key("list");
  w.BeginArray();
  w.Value(std::uint64_t{1});
  w.Value(std::uint64_t{2});
  w.EndArray();
  w.Key("s");
  w.Value("a\tb");
  w.EndObject();

  const JsonValue v = ParseJson(w.str());
  ASSERT_TRUE(v.IsObject());
  EXPECT_DOUBLE_EQ(v.Find("pi")->number, 3.25);
  ASSERT_TRUE(v.Find("list")->IsArray());
  EXPECT_EQ(v.Find("list")->array.size(), 2u);
  EXPECT_EQ(v.Find("s")->string_value, "a\tb");
}

TEST(JsonParse, RejectsGarbage) {
  EXPECT_THROW(ParseJson("{"), std::runtime_error);
  EXPECT_THROW(ParseJson("{} x"), std::runtime_error);
  EXPECT_THROW(ParseJson("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(ParseJson("[1,]"), std::runtime_error);
}

// ------------------------------------------------------ TelemetryRegistry

TEST(TelemetryRegistry, CountersAccumulateGaugesOverwrite) {
  TelemetryRegistry reg;
  reg.AddCounter("ops", 3);
  reg.AddCounter("ops", 4);
  reg.SetGauge("g", 1.5);
  reg.SetGauge("g", 2.5);
  EXPECT_EQ(reg.Counter("ops"), 7u);
  EXPECT_DOUBLE_EQ(reg.Gauge("g"), 2.5);
  EXPECT_EQ(reg.Counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(reg.Gauge("missing"), 0.0);
}

TEST(TelemetryRegistry, SpansFoldIntoOneRecordPerName) {
  TelemetryRegistry reg;
  reg.RecordSpan("a", 1.0);
  reg.RecordSpan("b", 2.0);
  reg.RecordSpan("a", 0.5);
  EXPECT_TRUE(reg.HasSpan("a"));
  EXPECT_FALSE(reg.HasSpan("c"));
  EXPECT_DOUBLE_EQ(reg.SpanSeconds("a"), 1.5);
  EXPECT_DOUBLE_EQ(reg.SpanSeconds("c"), 0.0);
  const TelemetrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.spans.at("a").count, 2u);
  EXPECT_DOUBLE_EQ(snap.spans.at("a").seconds, 1.5);
  EXPECT_EQ(snap.spans.at("b").count, 1u);
  EXPECT_DOUBLE_EQ(snap.spans.at("b").seconds, 2.0);
  const JsonValue spans = *ParseJson(RunReportJson(reg)).Find("spans");
  EXPECT_EQ(spans.Find("a")->Find("count")->number, 2);
  EXPECT_DOUBLE_EQ(spans.Find("a")->Find("seconds")->number, 1.5);
}

TEST(TelemetryRegistry, ScopedSpanRecordsAndNullIsNoop) {
  TelemetryRegistry reg;
  { TelemetryRegistry::ScopedSpan span(&reg, "scoped"); }
  EXPECT_TRUE(reg.HasSpan("scoped"));
  { TelemetryRegistry::ScopedSpan span(nullptr, "ignored"); }  // no crash
}

TEST(TelemetryRegistry, ConcurrentCountersAreExact) {
  TelemetryRegistry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&reg] {
      for (int i = 0; i < 250; ++i) reg.AddCounter("hits", 1);
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(reg.Counter("hits"), 1000u);
}

// ------------------------------------------------------------- RunReport

// The stable schema every consumer relies on (also documented in
// docs/api_tour.md): top-level schema/version plus the four sections.
void CheckReportSchema(const JsonValue& doc) {
  ASSERT_TRUE(doc.IsObject());
  ASSERT_NE(doc.Find("schema"), nullptr);
  EXPECT_EQ(doc.Find("schema")->string_value, "pivotscale.run_report");
  ASSERT_NE(doc.Find("version"), nullptr);
  EXPECT_DOUBLE_EQ(doc.Find("version")->number, 2.0);
  ASSERT_NE(doc.Find("counters"), nullptr);
  EXPECT_TRUE(doc.Find("counters")->IsObject());
  ASSERT_NE(doc.Find("gauges"), nullptr);
  EXPECT_TRUE(doc.Find("gauges")->IsObject());
  ASSERT_NE(doc.Find("spans"), nullptr);
  EXPECT_TRUE(doc.Find("spans")->IsObject());
  for (const auto& [name, span] : doc.Find("spans")->object) {
    ASSERT_TRUE(span.IsObject()) << name;
    ASSERT_NE(span.Find("count"), nullptr) << name;
    EXPECT_TRUE(span.Find("count")->IsNumber()) << name;
    ASSERT_NE(span.Find("seconds"), nullptr) << name;
    EXPECT_TRUE(span.Find("seconds")->IsNumber()) << name;
  }
  ASSERT_NE(doc.Find("series"), nullptr);
  EXPECT_TRUE(doc.Find("series")->IsObject());
}

TEST(RunReport, EmptyRegistrySerializesCleanly) {
  TelemetryRegistry reg;
  CheckReportSchema(ParseJson(RunReportJson(reg)));
}

TEST(RunReport, PipelineProducesFullSchema) {
  EdgeList edges = Rmat(9, 6.0, 7);
  PlantCliques(&edges, 512, 4, 5, 8, 11);
  const Graph g = BuildGraph(std::move(edges));

  TelemetryRegistry reg;
  PivotScaleOptions options;
  options.k = 5;
  options.telemetry = &reg;
  const PivotScaleResult result = CountKCliques(g, options);

  const JsonValue doc = ParseJson(RunReportJson(reg));
  CheckReportSchema(doc);

  // Per-phase spans (heuristic, ordering, directionalize, counting).
  for (const char* phase :
       {"heuristic", "ordering", "directionalize", "counting"})
    EXPECT_TRUE(reg.HasSpan(phase)) << phase;

  // Per-thread busy times land in a series of the actual team size.
  const JsonValue* busy =
      doc.Find("series")->Find("exec.worker_busy_seconds");
  ASSERT_NE(busy, nullptr);
  ASSERT_TRUE(busy->IsArray());
  EXPECT_EQ(busy->array.size(), result.count.thread_busy_seconds.size());
  EXPECT_GE(busy->array.size(), 1u);

  // Op counters come from the OpCountStats policy (telemetry implies it).
  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters->Find("count.recursion_calls"), nullptr);
  EXPECT_GT(counters->Find("count.recursion_calls")->number, 0);
  ASSERT_NE(counters->Find("count.edge_ops"), nullptr);
  ASSERT_NE(counters->Find("count.roots"), nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("count.roots")->number,
                   static_cast<double>(g.NumNodes()));
  ASSERT_NE(counters->Find("exec.chunks"), nullptr);
  EXPECT_GT(counters->Find("exec.chunks")->number, 0);

  // Stage gauges: heuristic probes, ordering rounds, directionalize
  // quality.
  const JsonValue* gauges = doc.Find("gauges");
  for (const char* name :
       {"heuristic.max_degree", "heuristic.a_ratio", "ordering.rounds",
        "directionalize.max_out_degree", "exec.team",
        "count.workspace_bytes"})
    ASSERT_NE(gauges->Find(name), nullptr) << name;
  EXPECT_DOUBLE_EQ(gauges->Find("directionalize.max_out_degree")->number,
                   static_cast<double>(result.max_out_degree));
}

TEST(RunReport, DriverRecordsCountTelemetry) {
  const Graph g = BuildGraph(CompleteGraph(20));
  const Ordering ord = ComputeOrdering(g, {OrderingKind::kDegree});
  const Graph dag = Directionalize(g, ord.ranks);

  TelemetryRegistry reg;
  CountOptions options;
  options.k = 4;
  options.telemetry = &reg;
  const CountResult result = CountCliques(dag, options);
  EXPECT_EQ(result.total.value(), static_cast<uint128>(4845));  // C(20,4)

  EXPECT_EQ(reg.Counter("count.roots"), 20u);
  EXPECT_GT(reg.Counter("count.recursion_calls"), 0u);
  EXPECT_EQ(reg.Series("exec.worker_busy_seconds").size(),
            result.thread_busy_seconds.size());
}

TEST(RunReport, WriteAndImbalanceSummary) {
  TelemetryRegistry reg;
  reg.SetSeries("exec.worker_busy_seconds", {1.0, 0.5, 0.25});
  reg.AddCounter("count.roots", 10);

  const std::string summary = LoadImbalanceSummary(reg);
  EXPECT_NE(summary.find("exec.worker_busy_seconds"), std::string::npos);
  EXPECT_NE(summary.find("CoV"), std::string::npos);
  EXPECT_NE(summary.find("3 threads"), std::string::npos);

  const std::string path =
      ::testing::TempDir() + "/telemetry_test_report.json";
  WriteRunReport(path, reg);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  CheckReportSchema(ParseJson(buffer.str()));
  std::remove(path.c_str());
}

TEST(RunReport, StableOutputForIdenticalRegistries) {
  const auto fill = [](TelemetryRegistry& reg) {
    reg.AddCounter("b", 2);
    reg.AddCounter("a", 1);
    reg.SetGauge("z", 0.125);
    reg.RecordSpan("phase", 0.5);
    reg.SetSeries("s", {1.0, 2.0});
  };
  TelemetryRegistry r1, r2;
  fill(r1);
  fill(r2);
  EXPECT_EQ(RunReportJson(r1), RunReportJson(r2));
}

}  // namespace
}  // namespace pivotscale

// Store subsystem tests: .psx artifacts must round-trip bit-exactly
// against a fresh pipeline run, reject version/endianness mismatches, and
// fail the checksum on any bit flip — plus the atomic-write contract every
// artifact writer shares.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "order/core_order.h"
#include "pivot/pivotscale.h"
#include "store/artifact.h"
#include "store/checksum.h"
#include "util/atomic_file.h"
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

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A clique-rich test graph, deterministic across runs.
Graph TestGraph() {
  EdgeList edges = Rmat(9, 6.0, 7);
  PlantCliques(&edges, 512, 6, 5, 9, 3);
  return BuildGraph(std::move(edges));
}

// ------------------------------------------------------------- checksum

TEST(Crc64, KnownVectorAndIncrementalAgree) {
  // CRC-64/XZ check value for "123456789".
  const char* check = "123456789";
  EXPECT_EQ(Crc64(check, 9), 0x995DC9BBDF1939FAull);

  std::uint64_t state = Crc64Init();
  state = Crc64Update(state, check, 4);
  state = Crc64Update(state, check + 4, 5);
  EXPECT_EQ(Crc64Final(state), Crc64(check, 9));
}

TEST(Crc64, MatchesTheBitwiseDefinitionAtEveryLengthAndSplit) {
  // The eight-byte fold against the polynomial applied bit by bit, over
  // every length up to 40, from unaligned starts, fed in two pieces.
  const auto bitwise = [](const unsigned char* p, std::size_t n) {
    std::uint64_t crc = ~0ull;
    for (std::size_t i = 0; i < n; ++i) {
      crc ^= p[i];
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1) ? 0xC96C5795D7870F42ull : 0);
    }
    return ~crc;
  };
  std::vector<unsigned char> bytes(48);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<unsigned char>(i * 151 + 7);
  for (std::size_t start = 0; start < 3; ++start) {
    for (std::size_t n = 0; n + start <= 43; ++n) {
      const unsigned char* p = bytes.data() + start;
      const std::uint64_t want = bitwise(p, n);
      EXPECT_EQ(Crc64(p, n), want) << start << " " << n;
      const std::size_t half = n / 3;
      const std::uint64_t state = Crc64Update(Crc64Init(), p, half);
      EXPECT_EQ(Crc64Final(Crc64Update(state, p + half, n - half)), want)
          << start << " " << n;
    }
  }
}

TEST(Crc64, DetectsEverySingleBitFlipOfASmallPayload) {
  std::string payload = "pivotscale artifact payload";
  const std::uint64_t clean = Crc64(payload.data(), payload.size());
  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      payload[byte] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc64(payload.data(), payload.size()), clean)
          << "undetected flip at byte " << byte << " bit " << bit;
      payload[byte] ^= static_cast<char>(1 << bit);
    }
  }
}

// ------------------------------------------------------------ round trip

TEST(Artifact, RoundTripMatchesFreshPipelineRun) {
  const Graph g = TestGraph();
  const GraphArtifact built = BuildArtifact(g);
  TempFile f("roundtrip.psx");
  WriteArtifact(f.path(), built);
  const GraphArtifact loaded = ReadArtifact(f.path());

  EXPECT_EQ(loaded.graph.offsets(), built.graph.offsets());
  EXPECT_EQ(loaded.graph.neighbor_array(), built.graph.neighbor_array());
  EXPECT_TRUE(loaded.graph.undirected());
  EXPECT_EQ(loaded.dag.offsets(), built.dag.offsets());
  EXPECT_EQ(loaded.dag.neighbor_array(), built.dag.neighbor_array());
  EXPECT_FALSE(loaded.dag.undirected());
  EXPECT_EQ(loaded.ranks, built.ranks);
  EXPECT_EQ(loaded.ordering_name, built.ordering_name);
  EXPECT_EQ(loaded.max_out_degree, built.max_out_degree);
  EXPECT_EQ(loaded.degeneracy, built.degeneracy);
  EXPECT_EQ(loaded.degeneracy, Degeneracy(g));

  // Counting on the loaded DAG must match the fresh pipeline exactly.
  for (std::uint32_t k : {3u, 5u, 7u}) {
    CountOptions copts;
    copts.k = k;
    const BigCount from_store =
        CountCliques(loaded.dag, copts).total;
    EXPECT_EQ(from_store, CountKCliquesSimple(g, k)) << "k=" << k;
  }
}

TEST(Artifact, ForcedOrderingAndSkippedDegeneracy) {
  const Graph g = TestGraph();
  ArtifactBuildOptions options;
  options.forced_ordering = OrderingSpec{OrderingKind::kCore};
  options.compute_degeneracy = false;
  const GraphArtifact built = BuildArtifact(g, options);
  EXPECT_EQ(built.ordering_name, "core");
  EXPECT_EQ(built.degeneracy, 0u);
  // The core ordering provably achieves max out-degree == degeneracy.
  EXPECT_EQ(built.max_out_degree, Degeneracy(g));
}

TEST(Artifact, BuildRecordsStoreSpans) {
  TelemetryRegistry telemetry;
  ArtifactBuildOptions options;
  options.telemetry = &telemetry;
  BuildArtifact(TestGraph(), options);
  EXPECT_TRUE(telemetry.HasSpan("store.heuristic"));
  EXPECT_TRUE(telemetry.HasSpan("store.ordering"));
  EXPECT_TRUE(telemetry.HasSpan("store.directionalize"));
  EXPECT_TRUE(telemetry.HasSpan("store.degeneracy"));
}

// ------------------------------------------------------- pipeline prefix

// CountKCliques and BuildArtifact run the same prefix as PrepareDag, under
// a forced ordering and under both branches of the heuristic.
TEST(PipelinePrefix, CountAndStoreAgreeWithPrepareDag) {
  HeuristicConfig heuristic;
  heuristic.min_nodes = 100;
  const Graph small = BuildGraph(CompleteGraph(20));  // below min_nodes
  const Graph large = TestGraph();                    // above it
  struct Case {
    const Graph* g;
    std::optional<OrderingSpec> forced;
    bool expect_core_approx;
  };
  const Case cases[] = {
      {&small, std::nullopt, false},
      {&large, std::nullopt, true},
      {&large, OrderingSpec{OrderingKind::kKCore}, false},
      {&small, OrderingSpec{OrderingKind::kApproxCore, 0.1}, false},
  };
  for (const Case& c : cases) {
    const PreparedDag prepared = PrepareDag(*c.g, heuristic, c.forced);
    SCOPED_TRACE(prepared.ordering.name);
    EXPECT_EQ(prepared.decision.use_core_approx, c.expect_core_approx);

    PivotScaleOptions count_options;
    count_options.k = 4;
    count_options.heuristic = heuristic;
    count_options.forced_ordering = c.forced;
    const PivotScaleResult counted = CountKCliques(*c.g, count_options);
    EXPECT_EQ(counted.ordering_name, prepared.ordering.name);
    EXPECT_EQ(counted.max_out_degree, prepared.max_out_degree);
    EXPECT_EQ(counted.decision.use_core_approx, c.expect_core_approx);
    CountOptions on_prepared;
    on_prepared.k = 4;
    EXPECT_EQ(counted.total, CountCliques(prepared.dag, on_prepared).total);

    ArtifactBuildOptions build_options;
    build_options.heuristic = heuristic;
    build_options.forced_ordering = c.forced;
    const GraphArtifact built = BuildArtifact(*c.g, build_options);
    EXPECT_EQ(built.ordering_name, prepared.ordering.name);
    EXPECT_EQ(built.ranks, prepared.ordering.ranks);
    EXPECT_EQ(built.dag.offsets(), prepared.dag.offsets());
    EXPECT_EQ(built.dag.neighbor_array(), prepared.dag.neighbor_array());
    EXPECT_EQ(built.max_out_degree, prepared.max_out_degree);
  }
}

// ------------------------------------------------------------- rejection

class ArtifactFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("reject.psx");
    built_ = BuildArtifact(TestGraph());
    WriteArtifact(file_->path(), built_);
    bytes_ = ReadAll(file_->path());
    ASSERT_GT(bytes_.size(), 100u);
  }

  void ExpectThrowContaining(const std::string& what) {
    WriteAll(file_->path(), bytes_);
    try {
      ReadArtifact(file_->path());
      FAIL() << "expected rejection mentioning \"" << what << "\"";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << "actual error: " << e.what();
    }
  }

  // Byte offsets of the fields the structural cases corrupt, from the
  // layout in store/artifact.h.
  static constexpr std::size_t kNumNodesAt = 16;
  static constexpr std::size_t kGraphEntriesAt = 24;
  static constexpr std::size_t kDagEntriesAt = 32;
  static constexpr std::size_t kMaxOutDegreeAt = 48;
  static constexpr std::size_t kNameLenAt = 56;
  std::uint64_t U64At(std::size_t pos) const {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes_.data() + pos, sizeof(v));
    return v;
  }
  template <typename T>
  void Put(std::size_t pos, T value) {
    std::memcpy(bytes_.data() + pos, &value, sizeof(value));
  }
  std::size_t GraphOffsetsAt() const {
    std::uint32_t name_len = 0;
    std::memcpy(&name_len, bytes_.data() + kNameLenAt, sizeof(name_len));
    return 64 + name_len;
  }
  std::size_t RanksAt() const {
    return GraphOffsetsAt() + (U64At(kNumNodesAt) + 1) * sizeof(EdgeId) +
           U64At(kGraphEntriesAt) * sizeof(NodeId);
  }
  std::size_t DagOffsetsAt() const {
    return RanksAt() + U64At(kNumNodesAt) * sizeof(NodeId);
  }
  std::size_t DagNeighborsAt() const {
    return DagOffsetsAt() + (U64At(kNumNodesAt) + 1) * sizeof(EdgeId);
  }
  // The first row of the CSR section whose offsets start at `offsets_at`
  // with at least two entries: {row, offset of its first entry}.
  std::pair<NodeId, EdgeId> FirstRowOfTwo(std::size_t offsets_at) const {
    for (NodeId u = 0; u < U64At(kNumNodesAt); ++u) {
      const EdgeId begin = U64At(offsets_at + u * sizeof(EdgeId));
      if (U64At(offsets_at + (u + 1) * sizeof(EdgeId)) - begin >= 2)
        return {u, begin};
    }
    ADD_FAILURE() << "no row with two entries";
    return {0, 0};
  }
  // The first entry of `csr` (the built graph or DAG) that a vertex w can
  // replace while its row u stays strictly increasing, where w is neither
  // u nor a graph neighbor of u: {u, entry, w}.
  std::tuple<NodeId, EdgeId, NodeId> OffGraphReplacement(
      const Graph& csr) const {
    for (NodeId u = 0; u < csr.NumNodes(); ++u) {
      const std::span<const NodeId> row = csr.Neighbors(u);
      for (std::size_t i = 0; i < row.size(); ++i) {
        const NodeId lo = i == 0 ? 0 : row[i - 1] + 1;
        const NodeId hi = i + 1 == row.size() ? csr.NumNodes() : row[i + 1];
        for (NodeId w = lo; w < hi; ++w)
          if (w != u && !built_.graph.HasEdge(u, w))
            return {u, csr.offsets()[u] + i, w};
      }
    }
    ADD_FAILURE() << "no replaceable entry";
    return {0, 0, 0};
  }
  NodeId NodeIdAt(std::size_t pos) const {
    NodeId v = 0;
    std::memcpy(&v, bytes_.data() + pos, sizeof(v));
    return v;
  }
  // Recomputes the trailing crc64, so only the structural checks can
  // reject the corruption.
  void Reseal() {
    const std::size_t body = bytes_.size() - sizeof(std::uint64_t);
    Put(body, Crc64(bytes_.data(), body));
  }

  std::unique_ptr<TempFile> file_;
  GraphArtifact built_;
  std::string bytes_;
};

TEST_F(ArtifactFileTest, RejectsBadMagic) {
  bytes_[0] = 'Q';
  ExpectThrowContaining("not a PSX1 artifact");
}

TEST_F(ArtifactFileTest, RejectsUnsupportedVersion) {
  bytes_[4] = 2;  // version field (little-endian u32 at offset 4)
  ExpectThrowContaining("unsupported artifact version 2");
}

TEST_F(ArtifactFileTest, RejectsForeignEndianness) {
  // Byte-swap the endianness sentinel, as a big-endian writer would have
  // laid it down.
  std::swap(bytes_[8], bytes_[11]);
  std::swap(bytes_[9], bytes_[10]);
  ExpectThrowContaining("endianness mismatch");
}

TEST_F(ArtifactFileTest, BitFlipAnywhereFailsChecksum) {
  // Flip one bit in the middle of the CSR payload and near the end.
  for (const std::size_t pos :
       {bytes_.size() / 2, bytes_.size() - 16}) {
    SCOPED_TRACE(pos);
    bytes_[pos] ^= 0x10;
    ExpectThrowContaining("checksum mismatch");
    bytes_[pos] ^= 0x10;
  }
}

TEST_F(ArtifactFileTest, RejectsTruncation) {
  bytes_.resize(bytes_.size() / 2);
  ExpectThrowContaining("checksum mismatch");
}

TEST_F(ArtifactFileTest, RejectsTruncatedHeader) {
  bytes_.resize(10);
  ExpectThrowContaining("truncated");
}

TEST_F(ArtifactFileTest, ResealedOutOfRangeDagNeighborIsRejected) {
  Put(DagNeighborsAt(), static_cast<NodeId>(U64At(kNumNodesAt)));
  Reseal();
  ExpectThrowContaining("dag neighbor id");
}

TEST_F(ArtifactFileTest, ResealedDuplicateDagNeighborIsRejected) {
  // A repeated DAG neighbor would be counted as a clique of its own.
  const auto [u, begin] = FirstRowOfTwo(DagOffsetsAt());
  const std::size_t first = DagNeighborsAt() + begin * sizeof(NodeId);
  Put(first + sizeof(NodeId), NodeIdAt(first));
  Reseal();
  ExpectThrowContaining("dag row " + std::to_string(u) +
                        " is not strictly increasing at entry " +
                        std::to_string(begin + 1));
}

TEST_F(ArtifactFileTest, ResealedUnsortedGraphRowIsRejected) {
  const std::size_t neighbors_at =
      GraphOffsetsAt() + (U64At(kNumNodesAt) + 1) * sizeof(EdgeId);
  const auto [u, begin] = FirstRowOfTwo(GraphOffsetsAt());
  const std::size_t first = neighbors_at + begin * sizeof(NodeId);
  const NodeId a = NodeIdAt(first);
  Put(first, NodeIdAt(first + sizeof(NodeId)));
  Put(first + sizeof(NodeId), a);
  Reseal();
  ExpectThrowContaining("graph row " + std::to_string(u) +
                        " is not strictly increasing at entry " +
                        std::to_string(begin + 1));
}

TEST_F(ArtifactFileTest, ResealedSelfLoopIsRejected) {
  const std::size_t neighbors_at =
      GraphOffsetsAt() + (U64At(kNumNodesAt) + 1) * sizeof(EdgeId);
  const auto [u, begin] = FirstRowOfTwo(GraphOffsetsAt());
  Put(neighbors_at + begin * sizeof(NodeId), u);
  Reseal();
  ExpectThrowContaining("graph row " + std::to_string(u) +
                        " holds a self-loop");
}

TEST_F(ArtifactFileTest, ResealedDecreasingGraphOffsetsAreRejected) {
  const std::size_t second = GraphOffsetsAt() + 2 * sizeof(EdgeId);
  Put(GraphOffsetsAt() + sizeof(EdgeId), U64At(second) + 1);
  Reseal();
  ExpectThrowContaining("corrupt graph offsets (decreasing at 1)");
}

TEST_F(ArtifactFileTest, ResealedNonPermutationRanksAreRejected) {
  NodeId second_rank = 0;
  std::memcpy(&second_rank, bytes_.data() + RanksAt() + sizeof(NodeId),
              sizeof(second_rank));
  Put(RanksAt(), second_rank);
  Reseal();
  ExpectThrowContaining("stored ranks are not a permutation");
}

TEST_F(ArtifactFileTest, ResealedDagTwoCycleIsRejected) {
  // Arc u -> v plus v -> u: row v takes u in place of its first entry
  // above u, so it stays strictly increasing and the DAG keeps its size.
  // Pre-fix the served counts came out wrong instead of failing.
  const Graph& dag = built_.dag;
  for (NodeId u = 0; u < dag.NumNodes(); ++u) {
    for (const NodeId v : dag.Neighbors(u)) {
      const std::span<const NodeId> row = dag.Neighbors(v);
      const auto above = std::upper_bound(row.begin(), row.end(), u);
      if (above == row.end()) continue;
      const EdgeId entry = dag.offsets()[v] + (above - row.begin());
      Put(DagNeighborsAt() + entry * sizeof(NodeId), u);
      Reseal();
      ExpectThrowContaining("dag row " + std::to_string(v) +
                            " is not the graph neighbors ranked above " +
                            std::to_string(v));
      return;
    }
  }
  FAIL() << "no arc to turn into a 2-cycle";
}

TEST_F(ArtifactFileTest, ResealedArcAgainstTheRanksIsRejected) {
  // Swapping the ranks of an arc's ends that are next in rank order turns
  // that arc, and only it, against the ranks; the ranks stay a
  // permutation.
  const Graph& dag = built_.dag;
  const std::vector<NodeId>& ranks = built_.ranks;
  for (NodeId u = 0; u < dag.NumNodes(); ++u) {
    for (const NodeId v : dag.Neighbors(u)) {
      if (ranks[v] != ranks[u] + 1) continue;
      Put(RanksAt() + u * sizeof(NodeId), ranks[v]);
      Put(RanksAt() + v * sizeof(NodeId), ranks[u]);
      Reseal();
      const NodeId first = std::min(u, v);
      ExpectThrowContaining("dag row " + std::to_string(first) +
                            " is not the graph neighbors ranked above " +
                            std::to_string(first));
      return;
    }
  }
  FAIL() << "no arc between vertices next in rank order";
}

TEST_F(ArtifactFileTest, ResealedDagArcOffTheGraphIsRejected) {
  const auto [u, entry, w] = OffGraphReplacement(built_.dag);
  Put(DagNeighborsAt() + entry * sizeof(NodeId), w);
  Reseal();
  ExpectThrowContaining("dag row " + std::to_string(u) +
                        " is not the graph neighbors ranked above " +
                        std::to_string(u));
}

TEST_F(ArtifactFileTest, ResealedAsymmetricGraphIsRejected) {
  // Row u lists w in place of a neighbor v: (u, w) and (v, u) each lose
  // their reverse entry.
  const auto [u, entry, w] = OffGraphReplacement(built_.graph);
  const std::size_t neighbors_at =
      GraphOffsetsAt() + (U64At(kNumNodesAt) + 1) * sizeof(EdgeId);
  Put(neighbors_at + entry * sizeof(NodeId), w);
  Reseal();
  ExpectThrowContaining("graph is not symmetric: row ");
}

TEST_F(ArtifactFileTest, ResealedFalseMaxOutDegreeIsRejected) {
  const std::uint64_t stored = U64At(kMaxOutDegreeAt);
  ASSERT_EQ(stored, built_.dag.MaxDegree());
  Put(kMaxOutDegreeAt, stored + 1);
  Reseal();
  ExpectThrowContaining("header max_out_degree " +
                        std::to_string(stored + 1) + " differs from the dag's " +
                        std::to_string(stored));
}

TEST_F(ArtifactFileTest, ResealedDisagreeingEdgeCountsAreRejected) {
  Put(kDagEntriesAt, U64At(kDagEntriesAt) + 1);
  Reseal();
  ExpectThrowContaining("header edge counts disagree");
}

// ---------------------------------------------------------- atomic write

TEST(AtomicFile, WritesAndOverwrites) {
  TempFile f("atomic.txt");
  WriteFileAtomic(f.path(), "first");
  EXPECT_EQ(ReadAll(f.path()), "first");
  WriteFileAtomic(f.path(), "second, longer payload");
  EXPECT_EQ(ReadAll(f.path()), "second, longer payload");
}

TEST(AtomicFile, FailedWriteLeavesNoFile) {
  const std::string path =
      ::testing::TempDir() + "/no_such_dir/out.bin";
  EXPECT_THROW(WriteFileAtomic(path, "payload"), std::runtime_error);
  std::ifstream in(path);
  EXPECT_FALSE(static_cast<bool>(in));
}

TEST(AtomicFile, BinaryGraphWriterGoesThroughTempRename) {
  // WriteBinaryGraph must land the complete file under the final name and
  // leave no temp droppings next to it.
  TempFile f("atomic_graph.psg");
  const Graph g = TestGraph();
  WriteBinaryGraph(f.path(), g);
  const Graph loaded = ReadBinaryGraph(f.path());
  EXPECT_EQ(loaded.offsets(), g.offsets());
  EXPECT_EQ(loaded.neighbor_array(), g.neighbor_array());
  std::ifstream tmp(f.path() + ".tmp." + std::to_string(::getpid()));
  EXPECT_FALSE(static_cast<bool>(tmp));
}

TEST(AtomicFile, RunReportWriterIsAtomic) {
  TempFile f("atomic_report.json");
  TelemetryRegistry telemetry;
  telemetry.AddCounter("demo", 1);
  WriteRunReport(f.path(), telemetry);
  const std::string report = ReadAll(f.path());
  EXPECT_NE(report.find("\"demo\""), std::string::npos);
  std::ifstream tmp(f.path() + ".tmp." + std::to_string(::getpid()));
  EXPECT_FALSE(static_cast<bool>(tmp));
}

}  // namespace
}  // namespace pivotscale

// Regression tests for the input-validation fixes in graph/io.cc: text
// edge lists must reject vertex ids beyond the NodeId range (previously a
// silent truncation), and binary .psg headers must be validated before the
// CSR arrays are trusted downstream.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/io.h"

namespace pivotscale {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

  void WriteText(const std::string& text) const {
    std::ofstream out(path_);
    out << text;
  }

  void WriteBytes(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

 private:
  std::string path_;
};

// --------------------------------------------------------- text edge list

TEST(ReadEdgeList, AcceptsLargestNodeId) {
  TempFile f("edge_list_max_id.el");
  const std::uint64_t max_id = std::numeric_limits<NodeId>::max() - 1;
  f.WriteText("0 " + std::to_string(max_id) + "\n");
  const EdgeList edges = ReadEdgeList(f.path());
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].second, max_id);
}

TEST(ReadEdgeList, RejectsNodeIdMax) {
  // Id 2^32 - 1 leaves no NodeId vertex count; it used to reach the
  // builder, whose 32-bit id + 1 wrapped to 0 and crashed the loader.
  TempFile f("edge_list_node_id_max.el");
  f.WriteText("1 2\n4294967295 0\n");
  try {
    ReadEdgeList(f.path());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(":2"), std::string::npos) << what;  // line number
    EXPECT_NE(what.find("4294967295"), std::string::npos) << what;
  }
  EXPECT_THROW(LoadGraph(f.path()), std::runtime_error);
}

TEST(ReadEdgeList, RejectsIdBeyondNodeIdRange) {
  // Pre-fix this silently truncated 2^32 to vertex 0 and counted cliques
  // on the wrong graph.
  TempFile f("edge_list_overflow.el");
  f.WriteText("# comment\n0 1\n1 4294967296\n");
  try {
    ReadEdgeList(f.path());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(":3"), std::string::npos) << what;  // line number
    EXPECT_NE(what.find("4294967296"), std::string::npos) << what;
  }
}

TEST(ReadEdgeList, RejectsOverflowInFirstColumn) {
  TempFile f("edge_list_overflow_u.el");
  f.WriteText("18446744073709551615 0\n");
  EXPECT_THROW(ReadEdgeList(f.path()), std::runtime_error);
}

// --------------------------------------------------------- binary graphs

// Serializes a .psg image by hand so each header/body field can be
// corrupted independently.
std::string PsgBytes(std::uint64_t num_nodes, std::uint64_t num_entries,
                     const std::vector<std::uint64_t>& offsets,
                     const std::vector<std::uint32_t>& neighbors) {
  std::string out = "PSG1";
  out.push_back(1);  // undirected
  const auto append = [&out](const void* p, std::size_t bytes) {
    out.append(static_cast<const char*>(p), bytes);
  };
  append(&num_nodes, sizeof(num_nodes));
  append(&num_entries, sizeof(num_entries));
  append(offsets.data(), offsets.size() * sizeof(std::uint64_t));
  append(neighbors.data(), neighbors.size() * sizeof(std::uint32_t));
  return out;
}

TEST(ReadBinaryGraph, RoundTripsValidGraph) {
  const Graph g = BuildGraph(ErdosRenyi(60, 0.1, 5));
  TempFile f("roundtrip.psg");
  WriteBinaryGraph(f.path(), g);
  const Graph back = ReadBinaryGraph(f.path());
  EXPECT_EQ(back.NumNodes(), g.NumNodes());
  EXPECT_EQ(back.NumDirectedEdges(), g.NumDirectedEdges());
  EXPECT_EQ(back.offsets(), g.offsets());
  EXPECT_EQ(back.neighbor_array(), g.neighbor_array());
}

TEST(ReadBinaryGraph, RoundTripsEmptyGraph) {
  // A default-constructed Graph holds no offsets; it still writes one.
  TempFile f("empty.psg");
  WriteBinaryGraph(f.path(), Graph());
  const Graph back = ReadBinaryGraph(f.path());
  EXPECT_EQ(back.NumNodes(), 0u);
  EXPECT_EQ(back.NumDirectedEdges(), 0u);
}

TEST(ReadBinaryGraph, RejectsDecreasingOffsets) {
  // 3 nodes, 4 entries, offsets dip at node 1 — pre-fix this produced a
  // Graph whose Degree() underflowed to ~2^64.
  TempFile f("decreasing.psg");
  f.WriteBytes(PsgBytes(3, 4, {0, 3, 1, 4}, {1, 2, 0, 0}));
  EXPECT_THROW(ReadBinaryGraph(f.path()), std::runtime_error);
}

TEST(ReadBinaryGraph, RejectsOffsetsNotCoveringEntries) {
  // offsets[num_nodes] != num_entries.
  TempFile f("short_span.psg");
  f.WriteBytes(PsgBytes(3, 4, {0, 1, 2, 3}, {1, 2, 0, 0}));
  EXPECT_THROW(ReadBinaryGraph(f.path()), std::runtime_error);
}

TEST(ReadBinaryGraph, RejectsNonzeroFirstOffset) {
  TempFile f("nonzero_first.psg");
  f.WriteBytes(PsgBytes(3, 4, {1, 2, 3, 4}, {1, 2, 0, 0}));
  EXPECT_THROW(ReadBinaryGraph(f.path()), std::runtime_error);
}

TEST(ReadBinaryGraph, RejectsOutOfRangeNeighbor) {
  // Neighbor id 7 with only 3 nodes — pre-fix this read out of bounds in
  // every downstream Degree()/Neighbors() indexed by it.
  TempFile f("bad_neighbor.psg");
  f.WriteBytes(PsgBytes(3, 4, {0, 2, 3, 4}, {1, 2, 7, 0}));
  EXPECT_THROW(ReadBinaryGraph(f.path()), std::runtime_error);
}

// Reads `bytes` as a .psg file and expects a rejection naming `what`.
void ExpectPsgRejected(const std::string& name, const std::string& bytes,
                       const std::string& what) {
  TempFile f(name);
  f.WriteBytes(bytes);
  try {
    ReadBinaryGraph(f.path());
    ADD_FAILURE() << name << ": accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(ReadBinaryGraph, RejectsDuplicateNeighbor) {
  // Row 0 lists neighbor 1 twice: the counting kernels assume sorted,
  // duplicate-free rows.
  ExpectPsgRejected("duplicate.psg", PsgBytes(3, 4, {0, 2, 3, 4}, {1, 1, 0, 0}),
                    "graph row 0 is not strictly increasing at entry 1");
}

TEST(ReadBinaryGraph, RejectsSelfLoop) {
  ExpectPsgRejected("self_loop.psg", PsgBytes(3, 4, {0, 2, 3, 4}, {1, 2, 1, 0}),
                    "graph row 1 holds a self-loop");
}

TEST(ReadBinaryGraph, RejectsAsymmetricRows) {
  // K4 whose row 3 lacks its entry for 2: pre-fix it loaded and counted 2
  // triangles instead of 4.
  ExpectPsgRejected(
      "asymmetric.psg",
      PsgBytes(4, 11, {0, 3, 6, 9, 11}, {1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1}),
      "graph is not symmetric: row 2 lists 3 but row 3 does not list 2");
  // Row 2 lists 0 but row 0 does not list 2.
  ExpectPsgRejected("asymmetric_back.psg",
                    PsgBytes(3, 3, {0, 1, 2, 3}, {1, 0, 0}),
                    "graph is not symmetric: row 2 lists 0 but row 0 does "
                    "not list 2");
}

TEST(ReadBinaryGraph, RejectsHeaderBodySizeMismatch) {
  // Header promises 100 entries but the body holds 4: must error before
  // allocating or reading.
  std::string bytes = PsgBytes(3, 4, {0, 2, 3, 4}, {1, 2, 0, 0});
  const std::uint64_t lying_entries = 100;
  std::memcpy(bytes.data() + 4 + 1 + 8, &lying_entries,
              sizeof(lying_entries));
  TempFile f("lying_header.psg");
  f.WriteBytes(bytes);
  EXPECT_THROW(ReadBinaryGraph(f.path()), std::runtime_error);
}

TEST(ReadBinaryGraph, RejectsTrailingBytes) {
  // The header promises fewer entries than the body holds.
  TempFile f("trailing.psg");
  f.WriteBytes(PsgBytes(3, 4, {0, 2, 3, 4}, {1, 2, 0, 0}) + "xx");
  try {
    ReadBinaryGraph(f.path());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing bytes"),
              std::string::npos)
        << e.what();
  }
}

TEST(ReadBinaryGraph, RejectsNodeCountBeyondNodeIdRange) {
  std::string bytes = PsgBytes(3, 4, {0, 2, 3, 4}, {1, 2, 0, 0});
  const std::uint64_t huge_nodes = std::uint64_t{1} << 33;
  std::memcpy(bytes.data() + 4 + 1, &huge_nodes, sizeof(huge_nodes));
  TempFile f("huge_nodes.psg");
  f.WriteBytes(bytes);
  EXPECT_THROW(ReadBinaryGraph(f.path()), std::runtime_error);
}

TEST(ReadBinaryGraph, StillRejectsBadMagicAndTruncation) {
  TempFile f("bad_magic.psg");
  f.WriteBytes("NOPE");
  EXPECT_THROW(ReadBinaryGraph(f.path()), std::runtime_error);
  TempFile g("truncated.psg");
  g.WriteBytes(std::string("PSG1\x01", 5));
  EXPECT_THROW(ReadBinaryGraph(g.path()), std::runtime_error);
}

}  // namespace
}  // namespace pivotscale

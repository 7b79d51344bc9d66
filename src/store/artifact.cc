#include "store/artifact.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>

#include "graph/csr_file.h"
#include "store/checksum.h"
#include "util/atomic_file.h"

namespace pivotscale {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'X', '1'};
constexpr std::uint32_t kEndianSentinel = 0x01020304u;

}  // namespace

std::size_t GraphArtifact::HeapBytes() const {
  return graph.HeapBytes() + dag.HeapBytes() +
         ranks.capacity() * sizeof(NodeId) + ordering_name.size();
}

void WriteArtifact(const std::string& path, const GraphArtifact& artifact) {
  const Graph& g = artifact.graph;
  const Graph& dag = artifact.dag;
  if (!g.undirected())
    throw std::invalid_argument("WriteArtifact: graph must be undirected");
  if (dag.NumNodes() != g.NumNodes() ||
      artifact.ranks.size() != g.NumNodes())
    throw std::invalid_argument(
        "WriteArtifact: graph / dag / ranks sizes disagree");

  const std::uint64_t num_nodes = g.NumNodes();
  const std::uint64_t num_graph_entries = g.NumDirectedEdges();
  const std::uint64_t num_dag_entries = dag.NumDirectedEdges();

  std::string payload;
  payload.reserve(96 + artifact.ordering_name.size() +
                  2 * (num_nodes + 1) * sizeof(EdgeId) +
                  (num_graph_entries + num_dag_entries + num_nodes) *
                      sizeof(NodeId));
  AppendBytes(&payload, kMagic, sizeof(kMagic));
  AppendScalar(&payload, kArtifactVersion);
  AppendScalar(&payload, kEndianSentinel);
  AppendScalar(&payload, std::uint32_t{0});
  AppendScalar(&payload, num_nodes);
  AppendScalar(&payload, num_graph_entries);
  AppendScalar(&payload, num_dag_entries);
  AppendScalar(&payload, static_cast<std::uint64_t>(artifact.degeneracy));
  AppendScalar(&payload,
               static_cast<std::uint64_t>(artifact.max_out_degree));
  AppendScalar(&payload,
               static_cast<std::uint32_t>(artifact.ordering_name.size()));
  AppendScalar(&payload, std::uint32_t{0});
  AppendBytes(&payload, artifact.ordering_name.data(),
              artifact.ordering_name.size());
  AppendCsr(&payload, g);
  AppendBytes(&payload, artifact.ranks.data(), num_nodes * sizeof(NodeId));
  AppendCsr(&payload, dag);
  AppendScalar(&payload, Crc64(payload.data(), payload.size()));

  WriteFileAtomic(path, payload);
}

GraphArtifact ReadArtifact(const std::string& path) {
  CsrFileReader reader(path);
  // Fixed header through the name length: 4 + 3*4 + 5*8 + 2*4 bytes, plus
  // the trailing crc64.
  constexpr std::size_t kFixedHeader = 4 + 3 * 4 + 5 * 8 + 2 * 4;
  if (reader.file_size() < kFixedHeader + sizeof(std::uint64_t))
    reader.Fail("truncated artifact header");
  char magic[sizeof(kMagic)];
  reader.ReadBytes(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    reader.Fail("not a PSX1 artifact file");
  const auto version = reader.ReadScalar<std::uint32_t>();
  const auto endian = reader.ReadScalar<std::uint32_t>();
  if (version != kArtifactVersion)
    reader.Fail("unsupported artifact version " + std::to_string(version) +
                " (this reader supports version " +
                std::to_string(kArtifactVersion) + ")");
  if (endian != kEndianSentinel)
    reader.Fail("endianness mismatch (artifact was written on an "
                "incompatible platform)");

  // Whole-file integrity before trusting any size field: a flipped bit
  // anywhere must fail here, not surface as a subtle parse difference. The
  // crc streams over fixed-size blocks, so no image of the file is held.
  const std::uint64_t body_bytes = reader.file_size() - sizeof(std::uint64_t);
  reader.Seek(body_bytes);
  const auto stored_crc = reader.ReadScalar<std::uint64_t>();
  reader.Seek(0);
  reader.set_end(body_bytes);
  std::vector<char> block(std::size_t{64} << 10);
  std::uint64_t crc = Crc64Init();
  while (reader.remaining() > 0) {
    const std::size_t bytes =
        std::min<std::uint64_t>(block.size(), reader.remaining());
    reader.ReadBytes(block.data(), bytes);
    crc = Crc64Update(crc, block.data(), bytes);
  }
  const std::uint64_t computed_crc = Crc64Final(crc);
  if (stored_crc != computed_crc)
    reader.Fail("checksum mismatch (stored " + std::to_string(stored_crc) +
                ", computed " + std::to_string(computed_crc) +
                "); the artifact is corrupt");

  // Each section straight into its vector, after the magic, version,
  // endianness sentinel and reserved word.
  reader.Seek(sizeof(kMagic) + 3 * sizeof(std::uint32_t));
  const auto num_nodes = reader.ReadScalar<std::uint64_t>();
  const auto num_graph_entries = reader.ReadScalar<std::uint64_t>();
  const auto num_dag_entries = reader.ReadScalar<std::uint64_t>();
  const auto degeneracy = reader.ReadScalar<std::uint64_t>();
  const auto max_out_degree = reader.ReadScalar<std::uint64_t>();
  const auto name_len = reader.ReadScalar<std::uint32_t>();
  reader.ReadScalar<std::uint32_t>();  // reserved
  if (num_dag_entries * 2 != num_graph_entries)
    reader.Fail("header edge counts disagree (graph holds " +
                std::to_string(num_graph_entries) + " directed entries, dag " +
                std::to_string(num_dag_entries) + ")");

  GraphArtifact artifact;
  artifact.ordering_name = reader.ReadString(name_len);
  artifact.degeneracy = degeneracy;
  artifact.max_out_degree = max_out_degree;
  artifact.graph = reader.ReadCsr("graph", num_nodes, num_graph_entries,
                                  /*undirected=*/true);
  artifact.ranks = reader.ReadVector<NodeId>(num_nodes);
  if (!IsPermutation(artifact.ranks))
    reader.Fail("stored ranks are not a permutation");
  artifact.dag = reader.ReadCsr("dag", num_nodes, num_dag_entries,
                                /*undirected=*/false);
  reader.ExpectEnd();
  // The DAG must be Directionalize(graph, ranks): each row u holds exactly
  // the graph neighbors of u ranked above u, both rows in id order, so one
  // merge per row checks it. Anything else (a 2-cycle, an arc against the
  // ranks or off the graph) would make the counts wrong, not fail. The
  // merge has no branch on the ranks: which neighbors rank above u is a
  // coin toss that would mispredict about once per edge.
  const std::vector<NodeId>& ranks = artifact.ranks;
  for (NodeId u = 0; u < num_nodes; ++u) {
    const std::span<const NodeId> out = artifact.dag.Neighbors(u);
    std::size_t next = 0;
    bool differs = false;
    for (const NodeId v : artifact.graph.Neighbors(u)) {
      const bool above = ranks[v] > ranks[u];
      const NodeId arc = next < out.size() ? out[next] : u;
      differs |= above & (arc != v);
      next += above;
    }
    if (differs || next != out.size())
      reader.Fail("dag row " + std::to_string(u) +
                  " is not the graph neighbors ranked above " +
                  std::to_string(u));
  }
  if (artifact.dag.MaxDegree() != max_out_degree)
    reader.Fail("header max_out_degree " + std::to_string(max_out_degree) +
                " differs from the dag's " +
                std::to_string(artifact.dag.MaxDegree()));
  return artifact;
}

}  // namespace pivotscale

#include "store/artifact.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "graph/dag.h"
#include "store/checksum.h"
#include "util/atomic_file.h"

namespace pivotscale {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'X', '1'};
constexpr std::uint32_t kEndianSentinel = 0x01020304u;

void AppendBytes(std::string* out, const void* data, std::size_t bytes) {
  out->append(static_cast<const char*>(data), bytes);
}

template <typename T>
void AppendScalar(std::string* out, T value) {
  AppendBytes(out, &value, sizeof(value));
}

// Sequential reader over an in-memory file image; every read is
// bounds-checked so a lying header cannot run past the buffer.
class ByteReader {
 public:
  ByteReader(const std::string& path, std::string_view data)
      : path_(path), data_(data) {}

  template <typename T>
  T ReadScalar() {
    T value;
    ReadInto(&value, sizeof(value));
    return value;
  }

  std::string ReadString(std::size_t bytes) {
    Require(bytes);
    std::string s(data_.data() + pos_, bytes);
    pos_ += bytes;
    return s;
  }

  template <typename T>
  std::vector<T> ReadVector(std::uint64_t count) {
    if (count > data_.size() / sizeof(T))
      throw std::runtime_error(path_ + ": element count " +
                               std::to_string(count) +
                               " exceeds the file size");
    std::vector<T> v(count);
    ReadInto(v.data(), count * sizeof(T));
    return v;
  }

  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void Require(std::size_t bytes) {
    if (data_.size() - pos_ < bytes)
      throw std::runtime_error(path_ + ": truncated artifact body");
  }
  void ReadInto(void* dst, std::size_t bytes) {
    Require(bytes);
    std::memcpy(dst, data_.data() + pos_, bytes);
    pos_ += bytes;
  }

  const std::string& path_;
  std::string_view data_;
  std::size_t pos_ = 0;
};

// The CSR invariants the counting kernels assume; mirrors the .psg reader.
void ValidateCsr(const std::string& path, const char* what,
                 const std::vector<EdgeId>& offsets,
                 const std::vector<NodeId>& neighbors,
                 std::uint64_t num_nodes) {
  for (std::uint64_t u = 0; u < num_nodes; ++u)
    if (offsets[u] > offsets[u + 1])
      throw std::runtime_error(path + ": corrupt " + what +
                               " offsets (decreasing at " +
                               std::to_string(u) + ")");
  if (offsets.empty() || offsets[0] != 0 ||
      offsets[num_nodes] != neighbors.size())
    throw std::runtime_error(path + ": corrupt " + what +
                             " offsets (do not cover the neighbor array)");
  for (std::size_t e = 0; e < neighbors.size(); ++e)
    if (neighbors[e] >= num_nodes)
      throw std::runtime_error(path + ": " + what + " neighbor id " +
                               std::to_string(neighbors[e]) +
                               " is out of range");
}

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
  AppendBytes(&payload, g.offsets().data(),
              (num_nodes + 1) * sizeof(EdgeId));
  AppendBytes(&payload, g.neighbor_array().data(),
              num_graph_entries * sizeof(NodeId));
  AppendBytes(&payload, artifact.ranks.data(), num_nodes * sizeof(NodeId));
  AppendBytes(&payload, dag.offsets().data(),
              (num_nodes + 1) * sizeof(EdgeId));
  AppendBytes(&payload, dag.neighbor_array().data(),
              num_dag_entries * sizeof(NodeId));
  AppendScalar(&payload, Crc64(payload.data(), payload.size()));

  WriteFileAtomic(path, payload);
}

GraphArtifact ReadArtifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in) throw std::runtime_error(path + ": read failure");
  const std::string data = std::move(buffer).str();

  // Fixed header through the name length: 4 + 3*4 + 5*8 + 2*4 bytes, plus
  // the trailing crc64.
  constexpr std::size_t kFixedHeader = 4 + 3 * 4 + 5 * 8 + 2 * 4;
  if (data.size() < kFixedHeader + sizeof(std::uint64_t))
    throw std::runtime_error(path + ": truncated artifact header");
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error(path + ": not a PSX1 artifact file");

  std::uint32_t version = 0, endian = 0;
  std::memcpy(&version, data.data() + 4, sizeof(version));
  std::memcpy(&endian, data.data() + 8, sizeof(endian));
  if (version != kArtifactVersion)
    throw std::runtime_error(
        path + ": unsupported artifact version " + std::to_string(version) +
        " (this reader supports version " +
        std::to_string(kArtifactVersion) + ")");
  if (endian != kEndianSentinel)
    throw std::runtime_error(path +
                             ": endianness mismatch (artifact was written "
                             "on an incompatible platform)");

  // Whole-file integrity before trusting any size field: a flipped bit
  // anywhere must fail here, not surface as a subtle parse difference.
  std::uint64_t stored_crc = 0;
  std::memcpy(&stored_crc, data.data() + data.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  const std::uint64_t computed_crc =
      Crc64(data.data(), data.size() - sizeof(stored_crc));
  if (stored_crc != computed_crc)
    throw std::runtime_error(path + ": checksum mismatch (stored " +
                             std::to_string(stored_crc) + ", computed " +
                             std::to_string(computed_crc) +
                             "); the artifact is corrupt");

  // The body is the file less its crc, read in place.
  ByteReader reader(path, std::string_view(data.data(),
                                           data.size() - sizeof(stored_crc)));
  reader.ReadString(sizeof(kMagic));  // magic, already checked
  reader.ReadScalar<std::uint32_t>();  // version
  reader.ReadScalar<std::uint32_t>();  // endian sentinel
  reader.ReadScalar<std::uint32_t>();  // reserved
  const auto num_nodes = reader.ReadScalar<std::uint64_t>();
  const auto num_graph_entries = reader.ReadScalar<std::uint64_t>();
  const auto num_dag_entries = reader.ReadScalar<std::uint64_t>();
  const auto degeneracy = reader.ReadScalar<std::uint64_t>();
  const auto max_out_degree = reader.ReadScalar<std::uint64_t>();
  const auto name_len = reader.ReadScalar<std::uint32_t>();
  reader.ReadScalar<std::uint32_t>();  // reserved

  if (num_nodes > std::numeric_limits<NodeId>::max())
    throw std::runtime_error(path + ": header num_nodes " +
                             std::to_string(num_nodes) +
                             " exceeds the NodeId limit");
  if (num_dag_entries * 2 != num_graph_entries)
    throw std::runtime_error(
        path + ": header edge counts disagree (graph holds " +
        std::to_string(num_graph_entries) + " directed entries, dag " +
        std::to_string(num_dag_entries) + ")");

  GraphArtifact artifact;
  artifact.ordering_name = reader.ReadString(name_len);
  artifact.degeneracy = degeneracy;
  artifact.max_out_degree = max_out_degree;

  auto graph_offsets = reader.ReadVector<EdgeId>(num_nodes + 1);
  auto graph_neighbors = reader.ReadVector<NodeId>(num_graph_entries);
  artifact.ranks = reader.ReadVector<NodeId>(num_nodes);
  auto dag_offsets = reader.ReadVector<EdgeId>(num_nodes + 1);
  auto dag_neighbors = reader.ReadVector<NodeId>(num_dag_entries);
  if (reader.remaining() != 0)
    throw std::runtime_error(path + ": trailing bytes after the payload");

  ValidateCsr(path, "graph", graph_offsets, graph_neighbors, num_nodes);
  ValidateCsr(path, "dag", dag_offsets, dag_neighbors, num_nodes);
  if (!IsPermutation(artifact.ranks))
    throw std::runtime_error(path +
                             ": stored ranks are not a permutation");

  artifact.graph = Graph(std::move(graph_offsets),
                         std::move(graph_neighbors), /*undirected=*/true);
  artifact.dag = Graph(std::move(dag_offsets), std::move(dag_neighbors),
                       /*undirected=*/false);
  return artifact;
}

}  // namespace pivotscale

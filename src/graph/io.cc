#include "graph/io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "graph/builder.h"
#include "util/atomic_file.h"

namespace pivotscale {

namespace {
constexpr char kMagic[4] = {'P', 'S', 'G', '1'};

void AppendBytes(std::string* out, const void* data, std::size_t bytes) {
  out->append(static_cast<const char*>(data), bytes);
}
}  // namespace

EdgeList ReadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  EdgeList edges;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    std::uint64_t u = 0, v = 0;
    if (!(ls >> u >> v))
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": malformed edge line");
    // Ids stay below the NodeId maximum so that the vertex count, id + 1,
    // is itself a NodeId.
    constexpr std::uint64_t kMaxId = std::numeric_limits<NodeId>::max() - 1;
    if (u > kMaxId || v > kMaxId)
      throw std::runtime_error(
          path + ":" + std::to_string(line_no) + ": vertex id " +
          std::to_string(u > kMaxId ? u : v) + " exceeds the largest NodeId " +
          std::to_string(kMaxId));
    edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  return edges;
}

void WriteEdgeList(const std::string& path, const EdgeList& edges) {
  // Buffered + atomic rename like every other writer: a half-written edge
  // list silently loads as a smaller graph, the worst failure mode.
  std::string payload;
  payload.reserve(edges.size() * 12);
  for (const Edge& e : edges) {
    payload += std::to_string(e.first);
    payload += ' ';
    payload += std::to_string(e.second);
    payload += '\n';
  }
  WriteFileAtomic(path, payload);
}

void WriteBinaryGraph(const std::string& path, const Graph& g) {
  const std::uint64_t num_nodes = g.NumNodes();
  const std::uint64_t num_entries = g.NumDirectedEdges();
  std::string payload;
  payload.reserve(sizeof(kMagic) + 1 + 2 * sizeof(std::uint64_t) +
                  (num_nodes + 1) * sizeof(EdgeId) +
                  num_entries * sizeof(NodeId));
  AppendBytes(&payload, kMagic, sizeof(kMagic));
  const std::uint8_t undirected = g.undirected() ? 1 : 0;
  AppendBytes(&payload, &undirected, 1);
  AppendBytes(&payload, &num_nodes, sizeof(num_nodes));
  AppendBytes(&payload, &num_entries, sizeof(num_entries));
  AppendBytes(&payload, g.offsets().data(),
              (num_nodes + 1) * sizeof(EdgeId));
  AppendBytes(&payload, g.neighbor_array().data(),
              num_entries * sizeof(NodeId));
  // Temp file + rename: an interrupted write can never leave a truncated
  // .psg that a later ReadBinaryGraph half-accepts.
  WriteFileAtomic(path, payload);
}

Graph ReadBinaryGraph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error(path + ": not a PSG1 graph file");
  std::uint8_t undirected = 0;
  in.read(reinterpret_cast<char*>(&undirected), 1);
  std::uint64_t num_nodes = 0, num_entries = 0;
  in.read(reinterpret_cast<char*>(&num_nodes), sizeof(num_nodes));
  in.read(reinterpret_cast<char*>(&num_entries), sizeof(num_entries));
  if (!in) throw std::runtime_error(path + ": truncated header");
  // Header sanity before allocating: a corrupt/crafted file must error
  // cleanly, not reserve petabytes or index out of bounds downstream.
  if (num_nodes > std::numeric_limits<NodeId>::max())
    throw std::runtime_error(path + ": header num_nodes " +
                             std::to_string(num_nodes) +
                             " exceeds the NodeId limit");
  const auto body_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::uint64_t body_bytes =
      static_cast<std::uint64_t>(in.tellg() - body_start);
  in.seekg(body_start);
  const std::uint64_t expected_bytes =
      (num_nodes + 1) * sizeof(EdgeId) + num_entries * sizeof(NodeId);
  if (body_bytes != expected_bytes)
    throw std::runtime_error(
        path + ": header promises " + std::to_string(expected_bytes) +
        " body bytes but the file holds " + std::to_string(body_bytes));
  std::vector<EdgeId> offsets(num_nodes + 1);
  std::vector<NodeId> neighbors(num_entries);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(EdgeId)));
  in.read(reinterpret_cast<char*>(neighbors.data()),
          static_cast<std::streamsize>(neighbors.size() * sizeof(NodeId)));
  if (!in) throw std::runtime_error(path + ": truncated body");
  // CSR invariants the whole pipeline assumes: monotone offsets that cover
  // exactly the neighbor array, and every neighbor id in range.
  for (std::uint64_t u = 0; u < num_nodes; ++u)
    if (offsets[u] > offsets[u + 1])
      throw std::runtime_error(path + ": corrupt offsets (decreasing at " +
                               std::to_string(u) + ")");
  if (offsets[0] != 0 || offsets[num_nodes] != num_entries)
    throw std::runtime_error(
        path + ": corrupt offsets (span [" + std::to_string(offsets[0]) +
        ", " + std::to_string(offsets[num_nodes]) +
        "] does not cover the " + std::to_string(num_entries) +
        " neighbor entries)");
  for (std::uint64_t e = 0; e < num_entries; ++e)
    if (neighbors[e] >= num_nodes)
      throw std::runtime_error(path + ": neighbor id " +
                               std::to_string(neighbors[e]) + " at entry " +
                               std::to_string(e) + " is out of range (" +
                               std::to_string(num_nodes) + " nodes)");
  return Graph(std::move(offsets), std::move(neighbors), undirected != 0);
}

Graph LoadGraph(const std::string& path) {
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".psg") == 0)
    return ReadBinaryGraph(path);
  return BuildGraph(ReadEdgeList(path));
}

}  // namespace pivotscale

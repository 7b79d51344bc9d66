#include "graph/io.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "graph/builder.h"
#include "graph/csr_file.h"
#include "util/atomic_file.h"

namespace pivotscale {

namespace {
constexpr char kMagic[4] = {'P', 'S', 'G', '1'};
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
  AppendScalar(&payload, static_cast<std::uint8_t>(g.undirected()));
  AppendScalar(&payload, num_nodes);
  AppendScalar(&payload, num_entries);
  AppendCsr(&payload, g);
  // Temp file + rename: an interrupted write can never leave a truncated
  // .psg that a later ReadBinaryGraph half-accepts.
  WriteFileAtomic(path, payload);
}

Graph ReadBinaryGraph(const std::string& path) {
  CsrFileReader reader(path);
  char magic[sizeof(kMagic)];
  reader.ReadBytes(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    reader.Fail("not a PSG1 graph file");
  const auto undirected = reader.ReadScalar<std::uint8_t>();
  const auto num_nodes = reader.ReadScalar<std::uint64_t>();
  const auto num_entries = reader.ReadScalar<std::uint64_t>();
  Graph g = reader.ReadCsr("graph", num_nodes, num_entries, undirected != 0);
  reader.ExpectEnd();
  return g;
}

Graph LoadGraph(const std::string& path) {
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".psg") == 0)
    return ReadBinaryGraph(path);
  return BuildGraph(ReadEdgeList(path));
}

}  // namespace pivotscale

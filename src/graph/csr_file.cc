#include "graph/csr_file.h"

#include <limits>
#include <stdexcept>

#include "util/check.h"

namespace pivotscale {

void AppendBytes(std::string* out, const void* data, std::size_t bytes) {
  out->append(static_cast<const char*>(data), bytes);
}

void AppendCsr(std::string* out, const Graph& g) {
  // A default-constructed Graph holds no offsets; its row list is {0}.
  if (g.offsets().empty()) AppendScalar(out, EdgeId{0});
  AppendBytes(out, g.offsets().data(), g.offsets().size() * sizeof(EdgeId));
  AppendBytes(out, g.neighbor_array().data(),
              g.neighbor_array().size() * sizeof(NodeId));
}

CsrFileReader::CsrFileReader(const std::string& path)
    : path_(path), in_(path, std::ios::binary) {
  if (!in_) throw std::runtime_error("cannot open " + path);
  in_.seekg(0, std::ios::end);
  const std::streamoff size = in_.tellg();
  in_.seekg(0);
  if (!in_ || size < 0) Fail("cannot determine the file size");
  file_size_ = end_ = static_cast<std::uint64_t>(size);
}

void CsrFileReader::set_end(std::uint64_t end) {
  CHECK_LE(pos_, end);
  CHECK_LE(end, file_size_);
  end_ = end;
}

void CsrFileReader::Seek(std::uint64_t pos) {
  CHECK_LE(pos, end_);
  in_.seekg(static_cast<std::streamoff>(pos));
  if (!in_) Fail("read failure");
  pos_ = pos;
}

void CsrFileReader::Require(std::uint64_t bytes) const {
  if (bytes > remaining())
    Fail("truncated file (" + std::to_string(bytes) + " bytes needed at " +
         std::to_string(pos_) + ", " + std::to_string(remaining()) +
         " left)");
}

void CsrFileReader::ReadBytes(void* dst, std::uint64_t bytes) {
  Require(bytes);
  in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
  if (!in_) Fail("read failure");
  pos_ += bytes;
}

std::string CsrFileReader::ReadString(std::uint64_t bytes) {
  Require(bytes);
  std::string s(bytes, '\0');
  ReadBytes(s.data(), bytes);
  return s;
}

Graph CsrFileReader::ReadCsr(const std::string& what,
                             std::uint64_t num_nodes,
                             std::uint64_t num_entries, bool undirected) {
  // Header sanity before allocating: the vertex count must be a NodeId.
  if (num_nodes > std::numeric_limits<NodeId>::max())
    Fail("header num_nodes " + std::to_string(num_nodes) +
         " exceeds the NodeId limit");
  std::vector<EdgeId> offsets = ReadVector<EdgeId>(num_nodes + 1);
  std::vector<NodeId> neighbors = ReadVector<NodeId>(num_entries);
  // The CSR invariants the whole pipeline assumes: monotone offsets that
  // cover exactly the neighbor array, and rows of in-range ids, strictly
  // increasing (sorted, no duplicate) and without self-loops.
  for (std::uint64_t u = 0; u < num_nodes; ++u)
    if (offsets[u] > offsets[u + 1])
      Fail("corrupt " + what + " offsets (decreasing at " +
           std::to_string(u) + ")");
  if (offsets[0] != 0 || offsets[num_nodes] != num_entries)
    Fail("corrupt " + what + " offsets (span [" +
         std::to_string(offsets[0]) + ", " +
         std::to_string(offsets[num_nodes]) + "] does not cover the " +
         std::to_string(num_entries) + " neighbor entries)");
  for (std::uint64_t u = 0; u < num_nodes; ++u) {
    for (EdgeId e = offsets[u]; e < offsets[u + 1]; ++e) {
      const NodeId v = neighbors[e];
      if (v >= num_nodes)
        Fail(what + " neighbor id " + std::to_string(v) + " at entry " +
             std::to_string(e) + " is out of range (" +
             std::to_string(num_nodes) + " nodes)");
      if (v == u)
        Fail(what + " row " + std::to_string(u) + " holds a self-loop");
      if (e > offsets[u] && v <= neighbors[e - 1])
        Fail(what + " row " + std::to_string(u) +
             " is not strictly increasing at entry " + std::to_string(e));
    }
  }
  if (undirected) {
    // Every edge must be listed in both rows. Rows are sorted, so the
    // entries below v in row v are met in order as u = 0, 1, ... visits
    // their reverses: matched[v] counts those met so far, one O(E) pass.
    std::vector<NodeId> matched(num_nodes, 0);
    const auto asymmetric = [&](std::uint64_t a, NodeId b) {
      Fail(what + " is not symmetric: row " + std::to_string(a) +
           " lists " + std::to_string(b) + " but row " + std::to_string(b) +
           " does not list " + std::to_string(a));
    };
    for (std::uint64_t u = 0; u < num_nodes; ++u) {
      // Entries of row u below u left unmatched miss their reverse.
      const EdgeId above = offsets[u] + matched[u];
      if (above < offsets[u + 1] && neighbors[above] < u)
        asymmetric(u, neighbors[above]);
      for (EdgeId e = above; e < offsets[u + 1]; ++e) {
        const NodeId v = neighbors[e];
        const EdgeId back = offsets[v] + matched[v];
        if (back == offsets[v + 1] || neighbors[back] > u) asymmetric(u, v);
        if (neighbors[back] < u) asymmetric(v, neighbors[back]);
        ++matched[v];
      }
    }
  }
  return Graph(std::move(offsets), std::move(neighbors), undirected);
}

void CsrFileReader::ExpectEnd() {
  if (remaining() != 0)
    Fail(std::to_string(remaining()) + " trailing bytes after the payload");
}

void CsrFileReader::Fail(const std::string& message) const {
  throw std::runtime_error(path_ + ": " + message);
}

}  // namespace pivotscale

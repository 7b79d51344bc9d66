// Binary CSR file codec shared by the .psg graph format (graph/io.h) and
// the .psx artifact format (store/artifact.h).
//
// Writers append host-order (little-endian on every supported platform)
// scalars, strings and CSR sections to an in-memory payload. The reader
// reads each field straight from the file into its destination, so a load
// never holds a second image of the file; every read is bounded by the
// bytes left in the file, so a lying size field fails before it allocates.
// ReadCsr is the one place a CSR section read from a file is validated.
// This unit stays apart from graph/io.cc so the artifact reader does not
// pull the edge-list reader or the graph builder into its binaries.
#ifndef PIVOTSCALE_GRAPH_CSR_FILE_H_
#define PIVOTSCALE_GRAPH_CSR_FILE_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace pivotscale {

void AppendBytes(std::string* out, const void* data, std::size_t bytes);

template <typename T>
void AppendScalar(std::string* out, T value) {
  AppendBytes(out, &value, sizeof(value));
}

// Appends g's CSR section: (NumNodes() + 1) u64 offsets, then
// NumDirectedEdges() u32 neighbors.
void AppendCsr(std::string* out, const Graph& g);

// Sequential reader over one file. Every failure throws std::runtime_error
// prefixed with the path.
class CsrFileReader {
 public:
  // Opens `path`; reads may run to the end of the file until set_end.
  explicit CsrFileReader(const std::string& path);

  std::uint64_t file_size() const { return file_size_; }

  // Stops reads at byte `end`, e.g. before a trailer. The read position
  // must not be past it, nor it past the file size.
  void set_end(std::uint64_t end);

  // Moves the read position to byte `pos` (<= the end).
  void Seek(std::uint64_t pos);

  // Bytes between the read position and the end.
  std::uint64_t remaining() const { return end_ - pos_; }

  void ReadBytes(void* dst, std::uint64_t bytes);

  template <typename T>
  T ReadScalar() {
    T value{};
    ReadBytes(&value, sizeof(value));
    return value;
  }

  std::string ReadString(std::uint64_t bytes);

  // Reads `count` elements; fails before allocating when the file holds
  // fewer bytes than that.
  template <typename T>
  std::vector<T> ReadVector(std::uint64_t count) {
    if (count > remaining() / sizeof(T))
      Fail("element count " + std::to_string(count) +
           " exceeds the bytes left in the file");
    std::vector<T> v(count);
    ReadBytes(v.data(), count * sizeof(T));
    return v;
  }

  // Reads a CSR section of `num_nodes` rows and `num_entries` neighbors
  // and validates it: offsets start at 0, never decrease and end at
  // num_entries, every neighbor id is below num_nodes, every row is
  // strictly increasing and holds no self-loop, and, when `undirected`,
  // every edge is listed in both of its rows. `what` names the section in
  // errors ("graph", "dag").
  Graph ReadCsr(const std::string& what, std::uint64_t num_nodes,
                std::uint64_t num_entries, bool undirected);

  // Fails unless every byte up to the end has been read.
  void ExpectEnd();

  [[noreturn]] void Fail(const std::string& message) const;

 private:
  void Require(std::uint64_t bytes) const;

  std::string path_;
  std::ifstream in_;
  std::uint64_t file_size_ = 0;
  std::uint64_t end_ = 0;
  std::uint64_t pos_ = 0;
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_GRAPH_CSR_FILE_H_

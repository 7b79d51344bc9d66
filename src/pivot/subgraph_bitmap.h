// Bit-matrix induced subgraph (the encoding of GPU-Pivot, Almasri et al.,
// "Parallel K-Clique Counting on GPUs").
//
// The members of the induced subgraph are remapped to the compact id range
// [0, n) in ascending original-id order, and the symmetrized adjacency is
// stored as an immutable n x Words() matrix of 64-bit words: bit w of row u
// is set iff local vertices u and w are adjacent. A candidate set is then a
// Words()-word bitset, and its intersection with a neighborhood is one AND
// per word. Nothing in the matrix changes during the recursion, so it needs
// no undo stack, flags or partitioning (compare subgraph_remap.h).
//
// Shared by the production bitmap kernel (pivot/bitmap_counter.h) and the
// GPU-Pivot baseline model (baselines/gpu_pivot_model.cc). All buffers are
// reused across builds.
#ifndef PIVOTSCALE_PIVOT_SUBGRAPH_BITMAP_H_
#define PIVOTSCALE_PIVOT_SUBGRAPH_BITMAP_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"
#include "util/flat_hash.h"

namespace pivotscale {

class SubgraphBitmap {
 public:
  static constexpr std::uint32_t kUnbounded =
      std::numeric_limits<std::uint32_t>::max();

  void Attach(const Graph& dag);
  // Induces the subgraph on N+(root). Returns false, leaving the matrix
  // unbuilt, when it would have more than `max_vertices` members.
  bool Build(NodeId root, std::uint32_t max_vertices = kUnbounded);
  // Edge-parallel variant: induces the subgraph on N+(u) ∩ N+(v) — the
  // candidate pool of cliques whose two lowest-ranked members are (u, v).
  bool BuildPair(NodeId u, NodeId v, std::uint32_t max_vertices = kUnbounded);

  std::uint32_t NumVertices() const {
    return static_cast<std::uint32_t>(orig_.size());
  }
  // Row stride: ⌈NumVertices() / 64⌉ words.
  std::uint32_t Words() const { return words_; }
  const std::uint64_t* Row(std::uint32_t u) const {
    DCHECK_LT(u, NumVertices());
    return matrix_.data() + static_cast<std::size_t>(u) * words_;
  }
  // The matrix itself: row u starts at data() + u * Words().
  const std::uint64_t* data() const { return matrix_.data(); }
  NodeId OrigId(std::uint32_t u) const { return orig_[u]; }
  std::size_t HeapBytes() const;

 private:
  // Shared tail of Build/BuildPair: orig_ holds the member list; fills the
  // remap and the matrix.
  void FinishBuild();
  void SetBit(std::uint32_t row, std::uint32_t bit) {
    matrix_[static_cast<std::size_t>(row) * words_ + bit / 64] |=
        std::uint64_t{1} << (bit % 64);
  }

  const Graph* dag_ = nullptr;
  FlatHashMap remap_;           // original -> local id; used during builds
  std::vector<NodeId> orig_;    // local -> original id
  std::vector<std::uint64_t> matrix_;
  std::uint32_t words_ = 0;
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_SUBGRAPH_BITMAP_H_

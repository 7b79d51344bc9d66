// Remapped induced-subgraph structure (PivotScale (remap), Figure 4C) —
// the paper's default and fastest structure, a reproduction artifact here:
// production counts with the bitmap kernel (pivot/bitmap_counter.h).
//
// At the first recursion level the members of the induced subgraph are
// remapped to the compact id range [0, d(root)); all deeper levels reuse the
// new ids. Per-vertex state is then held in small dense arrays — the direct
// indexing of the dense structure with the footprint of the sparse one. The
// hash map is paid exactly once per root (during Build) rather than on every
// access (Section V-B).
//
// Interface contract: see subgraph_dense.h. Handles here are *local* ids;
// OrigId translates back for per-vertex attribution.
#ifndef PIVOTSCALE_PIVOT_SUBGRAPH_REMAP_H_
#define PIVOTSCALE_PIVOT_SUBGRAPH_REMAP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"
#include "util/flat_hash.h"

namespace pivotscale {

class RemapSubgraph {
 public:
  using Id = std::uint32_t;
  static constexpr const char* kName = "remap";

  void Attach(const Graph& dag);
  void Build(NodeId root);

  std::span<const Id> Vertices() const { return verts_; }

  std::span<Id> AdjPrefix(Id u) {
    DCHECK_LT(u, verts_.size());
    return {rows_[u].data(), static_cast<std::size_t>(deg_[u])};
  }
  std::uint32_t Deg(Id u) const {
    DCHECK_LT(u, verts_.size());
    return deg_[u];
  }
  void SetDeg(Id u, std::uint32_t d) { deg_[u] = d; }

  void Mark(Id u) { flags_[u] |= kMark; }
  void Unmark(Id u) { flags_[u] &= ~kMark; }
  bool Marked(Id u) const { return (flags_[u] & kMark) != 0; }

  void SetRemoved(Id u) { flags_[u] |= kRemoved; }
  void ClearRemoved(Id u) { flags_[u] &= ~kRemoved; }
  bool Removed(Id u) const { return (flags_[u] & kRemoved) != 0; }

  NodeId OrigId(Id u) const { return orig_[u]; }
  // Handles already are the compact physical indices.
  Id ModelIndex(Id u) const { return u; }
  std::size_t IndexSpace() const { return verts_.size(); }
  std::size_t HeapBytes() const;

 private:
  static constexpr std::uint8_t kMark = 1;
  static constexpr std::uint8_t kRemoved = 2;

  const Graph* dag_ = nullptr;
  FlatHashMap remap_;  // used during Build only
  std::vector<Id> verts_;                 // local ids 0..n-1
  std::vector<NodeId> orig_;              // local -> original id
  std::vector<std::vector<Id>> rows_;     // local-id adjacency; reused
  std::vector<std::uint32_t> deg_;
  std::vector<std::uint8_t> flags_;
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_SUBGRAPH_REMAP_H_

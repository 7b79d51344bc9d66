#include "pivot/subgraph_remap.h"

#include <numeric>

#include "util/check.h"

namespace pivotscale {

void RemapSubgraph::Attach(const Graph& dag) {
  dag_ = &dag;
  remap_.Clear();
  verts_.clear();
}

void RemapSubgraph::Build(NodeId root) {
  DCHECK(dag_ != nullptr) << "RemapSubgraph::Build before Attach";
  const auto nbrs = dag_->Neighbors(root);
  orig_.assign(nbrs.begin(), nbrs.end());
  const std::size_t n = orig_.size();

  // The remap — the one place a hash map is consulted for this root.
  remap_.Clear();
  remap_.Reserve(static_cast<std::uint32_t>(n));
  for (std::size_t local = 0; local < n; ++local)
    remap_.Insert(orig_[local], static_cast<Id>(local));

  verts_.resize(n);
  std::iota(verts_.begin(), verts_.end(), Id{0});
  if (rows_.size() < n) rows_.resize(n);
  if (deg_.size() < n) deg_.resize(n);
  if (flags_.size() < n) flags_.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    rows_[u].clear();  // keeps capacity
    deg_[u] = 0;
    flags_[u] = 0;
  }

  // Symmetrize member edges with ids already translated; everything after
  // this loop touches only compact local-id arrays.
  for (std::size_t a = 0; a < n; ++a) {
    for (NodeId b : dag_->Neighbors(orig_[a])) {
      const Id local = remap_.Find(b);
      if (local != FlatHashMap::kNotFound) {
        rows_[a].push_back(local);
        rows_[local].push_back(static_cast<Id>(a));
      }
    }
  }
  for (std::size_t u = 0; u < n; ++u)
    deg_[u] = static_cast<std::uint32_t>(rows_[u].size());
}

std::size_t RemapSubgraph::HeapBytes() const {
  std::size_t bytes = verts_.capacity() * sizeof(Id) +
                      orig_.capacity() * sizeof(NodeId) +
                      rows_.capacity() * sizeof(rows_[0]) +
                      deg_.capacity() * sizeof(deg_[0]) +
                      flags_.capacity() * sizeof(flags_[0]);
  for (const auto& row : rows_) bytes += row.capacity() * sizeof(Id);
  bytes += remap_.HeapBytes();
  return bytes;
}

}  // namespace pivotscale

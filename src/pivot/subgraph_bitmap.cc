#include "pivot/subgraph_bitmap.h"

#include <algorithm>

namespace pivotscale {

void SubgraphBitmap::Attach(const Graph& dag) {
  dag_ = &dag;
  remap_.Clear();
  orig_.clear();
  words_ = 0;
}

void SubgraphBitmap::Build(NodeId root) {
  DCHECK(dag_ != nullptr) << "SubgraphBitmap::Build before Attach";
  const auto nbrs = dag_->Neighbors(root);
  orig_.assign(nbrs.begin(), nbrs.end());
  const auto n = static_cast<std::uint32_t>(orig_.size());
  words_ = (n + 63) / 64;
  matrix_.assign(static_cast<std::size_t>(n) * words_, 0);
  if (n < 2) return;  // no member pairs, so no edges

  const EdgeId* offsets = dag_->offsets().data();
  remap_.Clear();
  remap_.Reserve(n);
  filter_.fill(0);
  for (std::uint32_t local = 0; local < n; ++local) {
    __builtin_prefetch(offsets + orig_[local]);
    remap_.Insert(orig_[local], local);
    const std::uint32_t slot = FilterSlot(orig_[local]);
    filter_[slot / 64] |= std::uint64_t{1} << (slot % 64);
  }
  for (std::uint32_t a = 0; a < std::min(n, kAhead); ++a)
    PrefetchRow(orig_[a]);
  for (std::uint32_t a = 0; a < n; ++a) {
    if (a + kAhead < n) PrefetchRow(orig_[a + kAhead]);
    for (NodeId b : dag_->Neighbors(orig_[a])) {
      const std::uint32_t slot = FilterSlot(b);
      if ((filter_[slot / 64] >> (slot % 64) & 1) == 0) continue;
      const std::uint32_t local = remap_.Find(b);
      if (local == FlatHashMap::kNotFound) continue;
      SetBit(a, local);
      SetBit(local, a);
    }
  }
}

std::size_t SubgraphBitmap::HeapBytes() const {
  return orig_.capacity() * sizeof(NodeId) +
         matrix_.capacity() * sizeof(std::uint64_t) + remap_.HeapBytes();
}

}  // namespace pivotscale

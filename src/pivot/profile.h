// Clique profile: the succinct-clique-tree leaf histogram.
//
// Every leaf of the Pivoter recursion is characterized by its pair
// (r, np) — required vertices and pivots on the path. The leaf stands for
// C(np, j) cliques of size r + j for every j, so the histogram of those
// pairs summarizes the graph's clique structure: the number of k-cliques
// is the sum over leaves of C(np, k - r). The all-size counting modes
// (kAllK, kAllUpToK) record this histogram as their only leaf sink
// (pivot/clique_leaves.h); the driver merges the per-worker histograms and
// derives CountResult::per_size from the merge once.
//
// The required vertices and the pivots of a leaf form a clique, so
// r + np never exceeds the largest clique size ω. Storage is triangular in
// s = r + np and grows only to the largest s added: O(ω²) cells, however
// large the DAG's out-degrees are.
#ifndef PIVOTSCALE_PIVOT_PROFILE_H_
#define PIVOTSCALE_PIVOT_PROFILE_H_

#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/uint128.h"

namespace pivotscale {

class CliqueProfile {
 public:
  // Adds `count` (> 0) leaves with r required vertices and np pivots.
  void Add(std::uint32_t r, std::uint32_t np, std::uint64_t count = 1) {
    DCHECK_GT(count, 0u);
    const std::uint32_t s = r + np;
    if (s >= rows_) Grow(s + 1);
    cells_[Cell(r, s)] += count;
  }

  // Adds every leaf of `other`.
  void Merge(const CliqueProfile& other);

  // Number of leaves with signature (r, np).
  std::uint64_t Leaves(std::uint32_t r, std::uint32_t np) const;

  // Number of k-cliques: sum_{r,np} leaves(r, np) * C(np, k - r). O(ω²)
  // per query, no graph access.
  BigCount CountK(std::uint32_t k) const;

  // Sizes 0..max_size at once (index s = number of s-cliques; index 0
  // unused).
  std::vector<BigCount> PerSize(std::uint32_t max_size) const;

  // Largest r + np recorded: the largest clique size (0 when empty).
  std::uint32_t MaxCliqueSize() const { return rows_ == 0 ? 0 : rows_ - 1; }

  // Total number of leaves recorded.
  std::uint64_t TotalLeaves() const;

  // Heap bytes held by the histogram.
  std::size_t Bytes() const {
    return cells_.capacity() * sizeof(std::uint64_t);
  }

  bool operator==(const CliqueProfile&) const = default;

 private:
  // Row s holds the cells r = 0..s (np = s - r).
  static std::size_t Cell(std::uint32_t r, std::uint32_t s) {
    return std::size_t{s} * (s + 1) / 2 + r;
  }
  void Grow(std::uint32_t rows);

  std::uint32_t rows_ = 0;  // one past the largest s added
  std::vector<std::uint64_t> cells_;
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_PROFILE_H_

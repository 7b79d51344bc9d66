// Parallel exclusive prefix sum.
//
// Used by the CSR builder and Directionalize to turn per-vertex counts into
// offsets. The input is cut into fixed blocks of kPrefixSumBlock items: one
// ParallelFor scans each block locally, a serial pass scans the block
// totals, and a second ParallelFor adds each block's offset. The blocks do
// not depend on the team, so neither does the output, and both passes run
// on a team claimed from the exec layer like every other region.
#ifndef PIVOTSCALE_UTIL_PREFIX_SUM_H_
#define PIVOTSCALE_UTIL_PREFIX_SUM_H_

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "exec/executor.h"
#include "util/check.h"

namespace pivotscale {

// Items per block; an input of at most one block is scanned serially.
inline constexpr std::size_t kPrefixSumBlock = std::size_t{1} << 16;

// Computes out[i] = sum of in[0..i) (exclusive scan) and returns the grand
// total. `out` may alias `in`. T must be an unsigned integral type.
template <typename T>
T ParallelPrefixSum(const std::vector<T>& in, std::vector<T>* out) {
  static_assert(std::is_unsigned_v<T>,
                "ParallelPrefixSum requires an unsigned accumulator");
  CHECK(out != nullptr);
  const std::size_t n = in.size();
  out->resize(n);
  const std::size_t blocks = (n + kPrefixSumBlock - 1) / kPrefixSumBlock;
  // Scans block b of `in` into `out` and returns its total. Each item is
  // read before it is written, because `in` may alias `out`.
  const auto scan_block = [&in, out, n](std::size_t b) {
    T local = T{0};
    const std::size_t end = std::min(n, (b + 1) * kPrefixSumBlock);
    for (std::size_t i = b * kPrefixSumBlock; i < end; ++i) {
      const T v = in[i];
      (*out)[i] = local;
      local += v;
    }
    return local;
  };
  if (blocks <= 1) return scan_block(0);

  std::vector<T> block_offsets(blocks + 1, T{0});
  ParallelFor(blocks, ExecOptions{},
              [&](std::size_t b) { block_offsets[b + 1] = scan_block(b); });
  for (std::size_t b = 1; b <= blocks; ++b)
    block_offsets[b] += block_offsets[b - 1];
  ParallelFor(blocks, ExecOptions{}, [&](std::size_t b) {
    const std::size_t end = std::min(n, (b + 1) * kPrefixSumBlock);
    for (std::size_t i = b * kPrefixSumBlock; i < end; ++i)
      (*out)[i] += block_offsets[b];
  });
  return block_offsets[blocks];
}

}  // namespace pivotscale

#endif  // PIVOTSCALE_UTIL_PREFIX_SUM_H_

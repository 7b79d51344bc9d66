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
// GPU-Pivot baseline model (baselines/gpu_pivot_model.cc).
//
// Build reads every DAG wedge (a, b) with a a member, and most b are not
// members. A 4,096-bit member filter, one bit per slot of the members'
// hashed ids, rejects such b before the hash probe. It has no false
// negatives, so the matrix is exactly the one the probe alone builds; a
// subgraph of thousands of members saturates it and every wedge probes.
//
// Build is bound by memory latency, not by compute. Each member costs two
// dependent loads, offsets[a] and then a's row, from DAG rows that sit in
// L3 (18.8 MB on the fr-k8 benchmark input), and a plain loop issues them
// one member at a time. On fr-k8 the serial build of all 179,943
// non-skipped roots took 1.29 s of a 1.32 s serial count: 4.08 M member
// rows and 245.8 M wedges read for 4.65 M subgraph edges. So Build is a
// software prefetch pipeline: filling the hash and filter prefetches
// every member's offset, the first kAhead members' rows are prefetched
// before the wedge loop, and member a's turn prefetches the row of member
// a + kAhead. The bitmap kernel also prefetches the members of its next
// root (PrefetchRow). The loads are the same, only the waits overlap, and
// the matrix is unchanged (docs/parallelism.md has the timings).
//
// Subgraphs of every size build; the matrix of n vertices takes
// n * ⌈n / 64⌉ words, and all buffers are reused across builds. NarrowRows
// re-indexes a candidate set into a smaller matrix of the same form; the
// bitmap kernel narrows with it.
#ifndef PIVOTSCALE_PIVOT_SUBGRAPH_BITMAP_H_
#define PIVOTSCALE_PIVOT_SUBGRAPH_BITMAP_H_

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"
#include "util/flat_hash.h"

namespace pivotscale {

// The bitmap kernel's loops are popcounts. The x86-64 baseline ISA this
// project compiles for has no popcount instruction, so there the recursion
// and NarrowRows alone are compiled for it and the CPU is checked once per
// counter.
#if defined(__x86_64__) && !defined(__POPCNT__)
#define PIVOTSCALE_POPCNT_TARGET __attribute__((target("popcnt")))
inline bool BitmapKernelSupported() {
  return __builtin_cpu_supports("popcnt");
}
#else
#define PIVOTSCALE_POPCNT_TARGET
inline bool BitmapKernelSupported() { return true; }
#endif

// The word count template argument of a set wider than four words, whose
// width is known only at run time (NarrowRows, pivot/bitmap_counter.h).
inline constexpr std::uint32_t kWide = 0;

class SubgraphBitmap {
 public:
  void Attach(const Graph& dag);
  // Induces the subgraph on N+(root).
  void Build(NodeId root);
  // Hints the DAG row of `v`, the members of v's subgraph, into cache.
  void PrefetchRow(NodeId v) const {
    __builtin_prefetch(dag_->Neighbors(v).data());
  }

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
  // The local -> original id map: OrigIds()[u] is local u's original id.
  const NodeId* OrigIds() const { return orig_.data(); }
  std::size_t HeapBytes() const;

 private:
  void SetBit(std::uint32_t row, std::uint32_t bit) {
    matrix_[static_cast<std::size_t>(row) * words_ + bit / 64] |=
        std::uint64_t{1} << (bit % 64);
  }

  // The member filter's slot of original id `id`: its top 12 bits under
  // the Fibonacci mix FlatHashMap also hashes with.
  static std::uint32_t FilterSlot(NodeId id) {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ULL) >> 52);
  }

  // How many members ahead Build prefetches rows. Distances 1 to 5 built
  // the fr-k8 subgraphs within noise of each other: 0.20-0.26 s at 4
  // threads, against 0.32-0.43 s without prefetching.
  static constexpr std::uint32_t kAhead = 3;

  const Graph* dag_ = nullptr;
  FlatHashMap remap_;           // original -> local id; used during builds
  // One bit per filter slot holding a member; a clear bit rules an id out
  // without a hash probe. Fixed at 4,096 bits (512 B), not |V|-sized.
  std::array<std::uint64_t, 64> filter_{};
  std::vector<NodeId> orig_;    // local -> original id
  std::vector<std::uint64_t> matrix_;
  std::uint32_t words_ = 0;
};

// Narrowing: re-indexes the members of `set`, a `words`-word bitset over
// the matrix `rows` (row stride `words`), to the local ids 0..|set|-1,
// keeping their order, and writes their rows restricted to `set` to `out`
// with row stride `out_words` >= ⌈|set| / 64⌉: bit j of out row i is set
// iff members i and j are adjacent. `ids` maps the local ids of `rows` to
// original ids; out_ids[i] receives member i's original id. A member's new
// id is the number of members below it: one popcount per adjacent bit.
// `words` is W, or the source width for W = kWide. Needs
// BitmapKernelSupported().
template <std::uint32_t W>
PIVOTSCALE_POPCNT_TARGET void NarrowRows(const std::uint64_t* rows,
                                         const std::uint64_t* set,
                                         const NodeId* ids,
                                         std::uint32_t out_words,
                                         std::uint64_t* out, NodeId* out_ids,
                                         std::uint32_t words = W) {
  DCHECK(W == kWide || words == W);
  if constexpr (W != kWide) words = W;  // a compile-time loop bound
  // below[i]: members in the words before word i.
  std::conditional_t<W == kWide, std::vector<std::uint32_t>,
                     std::array<std::uint32_t, W>>
      below{};
  if constexpr (W == kWide) below.resize(words);
  std::uint32_t count = 0;
  for (std::uint32_t i = 0; i < words; ++i) {
    below[i] = count;
    count += static_cast<std::uint32_t>(std::popcount(set[i]));
  }
  DCHECK_LE(count, 64 * out_words);
  std::uint64_t* out_row = out;
  for (std::uint32_t i = 0; i < words; ++i) {
    for (std::uint64_t members = set[i]; members != 0;
         members &= members - 1) {
      const std::uint32_t u =
          64 * i + static_cast<std::uint32_t>(std::countr_zero(members));
      *out_ids++ = ids[u];
      for (std::uint32_t j = 0; j < out_words; ++j) out_row[j] = 0;
      const std::uint64_t* row = rows + static_cast<std::size_t>(u) * words;
      for (std::uint32_t j = 0; j < words; ++j) {
        for (std::uint64_t bits = row[j] & set[j]; bits != 0;
             bits &= bits - 1) {
          const std::uint64_t lower =
              (std::uint64_t{1} << std::countr_zero(bits)) - 1;
          const std::uint32_t rank =
              below[j] +
              static_cast<std::uint32_t>(std::popcount(set[j] & lower));
          out_row[rank / 64] |= std::uint64_t{1} << (rank % 64);
        }
      }
      out_row += out_words;
    }
  }
}

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_SUBGRAPH_BITMAP_H_

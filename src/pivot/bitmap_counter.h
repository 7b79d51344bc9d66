// The bitmap counting kernel: the Pivoter recursion of pivot/pivoter.h over
// an immutable bit-matrix subgraph (pivot/subgraph_bitmap.h), the
// encoding of GPU-Pivot (Almasri et al.) with the pivot rule of Pivoter
// (Jain & Seshadhri).
//
// A candidate set P is a W-word bitset held by value in each recursion
// frame, so the frames themselves are the depth-indexed candidate sets:
//   - pivot = argmax over u in P of popcount(row[u] & P), scanning the set
//     bits of P in ascending local id (ties keep the lowest id);
//   - the child of branch w is row[w] & P, and removing w from the pool of
//     later branches is one bit clear — there is no undo stack, no
//     partitioning and no mark/removed flags;
//   - when the smallest in-set degree seen by the pivot scan is |P| - 1, P
//     is a clique. Its subtree would be a chain of pivot branches, one call
//     per member, ending in the leaf (r, np + |P|); the node counts that
//     leaf directly instead;
//   - at r = k - 3 (and at a k = 3 root, r = k - 2) the node makes one
//     pass over P instead of its pivot scan (TailScan) and settles in
//     closed form from |P|, |E(P)| and c_3(P) (CliqueLeaves::Tail). The
//     pass costs at most |P| + |E(P)| popcounts, and a clique P only |P|:
//     while the members walked so far form a clique, the pair loop is
//     skipped;
//   - narrowing: a node about to scan whose P fits in fewer words than its
//     matrix re-indexes P into an N-word matrix, N = ⌈|P| / 64⌉, with
//     NarrowRows (pivot/subgraph_bitmap.h), and its subtree recurses on
//     N-word sets. Members keep their order, so pivots, branch order and
//     every op counter are those of the unnarrowed recursion. Widths only
//     fall along a path, so one buffer per width of at most four words
//     serves every narrowing; buffers are allocated on first use and
//     reused.
// The leaf, early-termination, tail and pruning rules are CliqueLeaves',
// shared with PivotCounter, so both kernels count every mode identically
// (PivotCounter's tail stops at r = k - 2, so its op counts differ). The
// mode and per-vertex attribution are the compile-time Policy: one
// instantiation per CountPolicy, with no mode test below the root.
//
// The kernel takes subgraphs of every size. W is 1 to 4 for a matrix of at
// most 256 vertices; a wider matrix runs at W = kWide, whose sets are heap
// vectors of the matrix's width, through the same templates (loop bounds
// read Width<W>(), a compile-time constant for W <= 4). A wide node
// narrows into at most four words as soon as |P| <= 256, so only the top
// of a large subgraph's recursion runs wide, and each wide node scans at
// least 5 |P| words, which dwarfs its heap-allocated frame. The matrix of
// an n-vertex subgraph takes n * ⌈n / 64⌉ * 8 bytes of workspace.
//
// Op counters (pivot/stats.h) on this kernel: `calls` counts Recurse
// invocations (none for a skipped root), `edge_ops` one per
// popcount(row[u] & P) of a pivot scan and one per popcount of a tail pass
// (per member, and per pair-loop member), and `induces` one per child
// bitset formed (branch descent).
// There are no membership tests, so `memberships` stays 0.
#ifndef PIVOTSCALE_PIVOT_BITMAP_COUNTER_H_
#define PIVOTSCALE_PIVOT_BITMAP_COUNTER_H_

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "graph/graph.h"
#include "pivot/clique_leaves.h"
#include "pivot/stats.h"
#include "pivot/subgraph_bitmap.h"
#include "util/binomial.h"
#include "util/check.h"
#include "util/uint128.h"

namespace pivotscale {

// One thread's bitmap counting engine; Stats is a policy from
// pivot/stats.h (the address-tracing policy is not supported) and Policy a
// CountPolicy (pivot/clique_leaves.h).
template <typename Stats, typename Policy>
class BitmapCounter {
 public:
  // Arguments as for CliqueLeaves (pivot/clique_leaves.h).
  BitmapCounter(const Graph& dag, std::uint32_t k,
                std::uint32_t max_clique_bound, const BinomialTable* binom,
                bool early_termination = true)
      : dag_(dag),
        leaves_(dag.NumNodes(), k, max_clique_bound, binom,
                early_termination) {
    sg_.Attach(dag);
  }

  // Counts all cliques rooted at `root`. A root CliqueLeaves::SkipsRoot
  // rules out is neither built nor visited, so it adds no `calls`.
  // The executor hands out a chunk's roots in ascending order, so the
  // members of root + 1 are most likely the next ones built.
  void ProcessRoot(NodeId root) {
    if (root + 1 < dag_.NumNodes()) sg_.PrefetchRow(root + 1);
    if (leaves_.SkipsRoot(dag_.Degree(root))) return;
    sg_.Build(root);
    leaves_.SetRoot(root);
    Start();
  }

  BigCount total() const { return leaves_.total(); }
  const CliqueProfile& profile() const { return leaves_.profile(); }
  const std::vector<BigCount>& per_vertex_counts() const {
    return leaves_.per_vertex_counts();
  }
  const Stats& stats() const { return stats_; }
  std::size_t WorkspaceBytes() const {
    std::size_t bytes = sg_.HeapBytes();
    for (const Narrowed& n : narrowed_)
      bytes += n.rows.capacity() * sizeof(std::uint64_t) +
               n.ids.capacity() * sizeof(NodeId);
    return bytes;
  }

 private:
  // The widest fixed-width candidate set, in words.
  static constexpr std::uint32_t kMaxWords = 4;
  // The closed-form tail settles r = k - 3 nodes from c_3(P) (TailScan).
  static constexpr std::uint32_t kTailLevels = 3;

  template <std::uint32_t W>
  using Bits = std::conditional_t<W == kWide, std::vector<std::uint64_t>,
                                  std::array<std::uint64_t, W>>;

  // The matrix a W-word recursion frame reads, with its local -> original
  // id map: the built subgraph at its own width, a narrowing buffer below.
  struct Matrix {
    const std::uint64_t* rows = nullptr;
    const NodeId* ids = nullptr;
  };
  // A narrowing buffer of N words: 64 N rows of N words and 64 N ids.
  struct Narrowed {
    std::vector<std::uint64_t> rows;
    std::vector<NodeId> ids;
  };

  // Words per W-word set: W, or the built matrix's width for kWide.
  template <std::uint32_t W>
  std::uint32_t Width() const {
    if constexpr (W == kWide)
      return sg_.Words();
    else
      return W;
  }

  // Runs the recursion at the word count of the built subgraph.
  void Start() {
    switch (sg_.Words()) {
      case 0:
      case 1:
        return StartAt<1>();
      case 2:
        return StartAt<2>();
      case 3:
        return StartAt<3>();
      case 4:
        return StartAt<4>();
      default:
        return StartAt<kWide>();
    }
  }

  template <std::uint32_t W>
  void StartAt() {
    matrix_[W] = {sg_.data(), sg_.OrigIds()};
    // The root is the first required vertex.
    Recurse<W>(LowBits<W>(sg_.NumVertices()), /*r=*/1, /*np=*/0);
  }

  // The set {0, ..., n - 1}.
  template <std::uint32_t W>
  Bits<W> LowBits(std::uint32_t n) const {
    Bits<W> bits{};
    if constexpr (W == kWide) bits.resize(Width<W>());
    for (std::uint32_t i = 0; i < Width<W>(); ++i) {
      if (n >= 64 * (i + 1))
        bits[i] = ~std::uint64_t{0};
      else if (n > 64 * i)
        bits[i] = (std::uint64_t{1} << (n - 64 * i)) - 1;
    }
    return bits;
  }

  template <std::uint32_t W>
  void Recurse(const Bits<W>& cand, std::uint32_t r, std::uint32_t np) {
    stats_.OnCall();
    const std::uint32_t width = Width<W>();
    std::uint32_t size = 0;
    for (std::uint32_t i = 0; i < width; ++i)
      size += static_cast<std::uint32_t>(std::popcount(cand[i]));
    const NodeStep step = leaves_.Visit(r, np, size, kTailLevels);
    if (step == NodeStep::kSettled) return;
    if constexpr (Policy::kTail) {
      if (step == NodeStep::kTailScan) return TailScan<W>(cand, r, np, size);
    }

    if constexpr (W == kWide) {
      if (size <= 64 * kMaxWords)
        return Narrow<W, kMaxWords>(cand, r, np, size);
    } else if constexpr (W > 1) {
      if (size <= 64 * (W - 1)) return Narrow<W, W - 1>(cand, r, np, size);
    }
    Expand<W>(cand, r, np, size);
  }

  // The closed-form tail's one pass over P, at r = k - 3 (and at a k = 3
  // root, r = k - 2). It walks P in descending local id with
  // N_u = row[u] ∧ (the members walked before u), so sum |N_u| = |E(P)|,
  // one popcount per member. At r = k - 3 the triangles of G[P] whose
  // lowest member is u are the edges of G[N_u], one popcount per member of
  // N_u (InducedEdges) — except while the walked members form a clique:
  // then so does N_u, whose C(|N_u|, 2) edges need no popcount. A clique P
  // therefore costs |P| popcounts, as its clique leaf does.
  template <std::uint32_t W>
  void TailScan(const Bits<W>& cand, std::uint32_t r, std::uint32_t np,
                std::uint32_t size) {
    const std::uint64_t* rows = matrix_[W].rows;
    const std::uint32_t width = Width<W>();
    const bool triangles_wanted = r + 3 == leaves_.k();
    Bits<W> walked{};
    Bits<W> nu{};
    if constexpr (W == kWide) {
      walked.resize(width);
      nu.resize(width);
    }
    std::uint64_t edges = 0;
    std::uint64_t triangles = 0;
    std::uint32_t walked_count = 0;
    bool walked_clique = true;
    for (std::uint32_t i = width; i-- > 0;) {
      for (std::uint64_t bits = cand[i]; bits != 0;) {
        const auto top =
            static_cast<std::uint32_t>(63 - std::countl_zero(bits));
        bits ^= std::uint64_t{1} << top;
        const std::uint32_t u = 64 * i + top;
        const std::uint64_t* row = rows + static_cast<std::size_t>(u) * width;
        // Walked members all sit in words i and above.
        std::uint64_t degree = 0;
        for (std::uint32_t j = i; j < width; ++j) {
          nu[j] = row[j] & walked[j];
          degree += static_cast<std::uint64_t>(std::popcount(nu[j]));
        }
        stats_.OnEdgeOp();
        edges += degree;
        if (triangles_wanted) {
          if (walked_clique) {
            triangles += degree * (degree - 1) / 2;
            walked_clique = degree == walked_count;
          } else {
            triangles += InducedEdges<W>(nu, i);
          }
        }
        walked[i] |= std::uint64_t{1} << top;
        ++walked_count;
      }
    }
    leaves_.Tail(r, np, size, edges, triangles);
  }

  // |E(G[set])| for a set in words `lo` and above: one popcount of
  // row[v] ∧ (the members of `set` above v) per member v.
  template <std::uint32_t W>
  std::uint64_t InducedEdges(const Bits<W>& set, std::uint32_t lo) {
    const std::uint64_t* rows = matrix_[W].rows;
    const std::uint32_t width = Width<W>();
    std::uint64_t edges = 0;
    for (std::uint32_t i = lo; i < width; ++i) {
      for (std::uint64_t above = set[i]; above != 0;) {
        const std::uint32_t v =
            64 * i + static_cast<std::uint32_t>(std::countr_zero(above));
        above &= above - 1;
        const std::uint64_t* row = rows + static_cast<std::size_t>(v) * width;
        std::uint64_t count =
            static_cast<std::uint64_t>(std::popcount(row[i] & above));
        for (std::uint32_t j = i + 1; j < width; ++j)
          count += static_cast<std::uint64_t>(std::popcount(row[j] & set[j]));
        stats_.OnEdgeOp();
        edges += count;
      }
    }
    return edges;
  }

  // Re-indexes P (`size` members) into the narrowing buffer of the fewest
  // words, at most N, that hold it, and expands the node there.
  template <std::uint32_t W, std::uint32_t N>
  void Narrow(const Bits<W>& cand, std::uint32_t r, std::uint32_t np,
              std::uint32_t size) {
    if constexpr (N > 1) {
      if (size <= 64 * (N - 1)) return Narrow<W, N - 1>(cand, r, np, size);
    }
    Narrowed& buffer = narrowed_[N - 1];
    if (buffer.rows.empty()) {
      buffer.rows.resize(64 * N * N);
      buffer.ids.resize(64 * N);
    }
    NarrowRows<W>(matrix_[W].rows, cand.data(), matrix_[W].ids, N,
                  buffer.rows.data(), buffer.ids.data(), Width<W>());
    matrix_[N] = {buffer.rows.data(), buffer.ids.data()};
    Expand<N>(LowBits<N>(size), r, np, size);
  }

  // A node that needs a pivot scan, with `size` = |P| members.
  template <std::uint32_t W>
  void Expand(const Bits<W>& cand, std::uint32_t r, std::uint32_t np,
              std::uint32_t size) {
    const std::uint64_t* rows = matrix_[W].rows;
    const std::uint32_t width = Width<W>();
    // Pivot scan: the candidate with the most neighbors inside the set.
    // Its neighbors need no branches of their own — they are all reachable
    // through the pivot's branch as optional (pivot) vertices.
    std::uint32_t pivot = 0;
    std::uint32_t min_deg = size;
    int pivot_deg = -1;
    for (std::uint32_t i = 0; i < width; ++i) {
      for (std::uint64_t bits = cand[i]; bits != 0; bits &= bits - 1) {
        const std::uint32_t u =
            64 * i + static_cast<std::uint32_t>(std::countr_zero(bits));
        const std::uint64_t* row = rows + static_cast<std::size_t>(u) * width;
        std::uint32_t d = 0;
        for (std::uint32_t j = 0; j < width; ++j)
          d += static_cast<std::uint32_t>(std::popcount(row[j] & cand[j]));
        stats_.OnEdgeOp();
        if (static_cast<int>(d) > pivot_deg) {
          pivot = u;
          pivot_deg = static_cast<int>(d);
        }
        if (d < min_deg) min_deg = d;
      }
    }

    if (min_deg + 1 == size) {
      // P is a clique: count the end of its all-pivot chain directly.
      if constexpr (Policy::kPerVertex) {
        const NodeId* ids = matrix_[W].ids;
        for (std::uint32_t i = 0; i < width; ++i)
          for (std::uint64_t bits = cand[i]; bits != 0; bits &= bits - 1)
            leaves_.PushPivot(
                ids[64 * i +
                    static_cast<std::uint32_t>(std::countr_zero(bits))]);
      }
      leaves_.Leaf(r, np + size);
      if constexpr (Policy::kPerVertex) leaves_.PopPivots(size);
      return;
    }

    // Branches: the pivot first, then the pivot's non-neighbors in
    // ascending id. Each branch's vertex leaves `pool` once it has run.
    const std::uint64_t* pivot_row =
        rows + static_cast<std::size_t>(pivot) * width;
    Bits<W> pool = cand;
    Bits<W> others = cand;
    for (std::uint32_t i = 0; i < width; ++i) others[i] &= ~pivot_row[i];
    others[pivot / 64] &= ~(std::uint64_t{1} << (pivot % 64));

    Descend<W>(pivot, pool, r, np + 1, /*is_pivot=*/true);
    pool[pivot / 64] &= ~(std::uint64_t{1} << (pivot % 64));
    for (std::uint32_t i = 0; i < width; ++i) {
      for (std::uint64_t bits = others[i]; bits != 0; bits &= bits - 1) {
        const std::uint32_t w =
            64 * i + static_cast<std::uint32_t>(std::countr_zero(bits));
        Descend<W>(w, pool, r + 1, np, /*is_pivot=*/false);
        pool[i] &= ~(std::uint64_t{1} << (w % 64));
      }
    }
  }

  // The branch of `w`: its child candidate set is N(w) within `pool`.
  template <std::uint32_t W>
  void Descend(std::uint32_t w, const Bits<W>& pool, std::uint32_t r,
               std::uint32_t np, bool is_pivot) {
    const std::uint32_t width = Width<W>();
    const std::uint64_t* row =
        matrix_[W].rows + static_cast<std::size_t>(w) * width;
    Bits<W> child = pool;
    for (std::uint32_t i = 0; i < width; ++i) child[i] &= row[i];
    stats_.OnInduce();
    if constexpr (Policy::kPerVertex) {
      const NodeId id = matrix_[W].ids[w];
      if (is_pivot)
        leaves_.PushPivot(id);
      else
        leaves_.PushRequired(id);
      Recurse<W>(child, r, np);
      if (is_pivot)
        leaves_.PopPivots(1);
      else
        leaves_.PopRequired();
    } else {
      Recurse<W>(child, r, np);
    }
  }

  const Graph& dag_;
  SubgraphBitmap sg_;
  // matrix_[W]: the matrix of the W-word frames on the current path, with
  // matrix_[kWide] = matrix_[0] the built subgraph when it is wide. Widths
  // only fall along a path, so one matrix per width is enough.
  std::array<Matrix, kMaxWords + 1> matrix_{};
  std::array<Narrowed, kMaxWords> narrowed_;  // narrowed_[N - 1]: N words
  Stats stats_;
  CliqueLeaves<Policy> leaves_;
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_BITMAP_COUNTER_H_

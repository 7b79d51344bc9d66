#include "baselines/gpu_pivot_model.h"

#include <bit>
#include <stdexcept>
#include <vector>

#include "exec/executor.h"
#include "pivot/subgraph_bitmap.h"
#include "util/binomial.h"
#include "util/timer.h"

namespace pivotscale {

namespace {

// Fixed-width bitset arithmetic over spans of 64-bit words.
inline int PopcountWords(const std::uint64_t* a, std::size_t words) {
  int count = 0;
  for (std::size_t i = 0; i < words; ++i) count += std::popcount(a[i]);
  return count;
}

inline int PopcountAnd(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t words) {
  int count = 0;
  for (std::size_t i = 0; i < words; ++i) count += std::popcount(a[i] & b[i]);
  return count;
}

// One thread's GPU-Pivot-style engine (models a warp).
class GpuPivotWorker {
 public:
  GpuPivotWorker(const Graph& dag, std::uint32_t k,
                 const BinomialTable* binom)
      : k_(k), binom_(binom) {
    sg_.Attach(dag);
  }

  BigCount ProcessRoot(NodeId root) {
    // Binary-encoded adjacency matrix over remapped local ids (the shared
    // builder of pivot/subgraph_bitmap.h), of any size. This model keeps
    // no candidate set across levels: every level recomputes its
    // candidate bitset from scratch.
    sg_.Build(root);
    n_ = sg_.NumVertices();
    words_ = sg_.Words();
    if (n_ == 0) return k_ == 1 ? BigCount{1} : BigCount{};

    // Depth-indexed candidate bitsets (a fresh bitset per level is the
    // rebuild-per-level cost).
    if (cand_.size() < static_cast<std::size_t>(n_ + 2))
      cand_.resize(n_ + 2);
    auto& top = cand_[0];
    top.assign(words_, ~std::uint64_t{0});
    // Clear the padding bits beyond n_.
    if (n_ % 64 != 0) top[words_ - 1] = (std::uint64_t{1} << (n_ % 64)) - 1;

    return Recurse(0, /*r=*/1, /*np=*/0);
  }

  std::size_t WorkspaceBytes() const {
    std::size_t bytes = sg_.HeapBytes();
    for (const auto& c : cand_) bytes += c.capacity() * sizeof(std::uint64_t);
    return bytes;
  }

 private:
  const std::uint64_t* Row(std::uint32_t u) const { return sg_.Row(u); }
  static bool TestBit(const std::uint64_t* row, std::uint32_t bit) {
    return (row[bit / 64] >> (bit % 64)) & 1;
  }

  BigCount Recurse(std::uint32_t depth, std::uint32_t r, std::uint32_t np) {
    auto& cand = cand_[depth];
    const int remaining = PopcountWords(cand.data(), words_);

    if (r == k_) return BigCount{1};
    if (r + np + static_cast<std::uint32_t>(remaining) < k_)
      return BigCount{};
    if (remaining == 0) {
      if (k_ < r || k_ - r > np) return BigCount{};
      return BigCount{binom_->Choose(np, k_ - r)};
    }

    // Pivot selection: the intra-warp-parallel step in GPU-Pivot. A full
    // row-AND popcount per candidate — per-level work that a mutating
    // structure avoids.
    std::uint32_t pivot = 0;
    int pivot_deg = -1;
    for (std::uint32_t u = 0; u < n_; ++u) {
      if (!TestBit(cand.data(), u)) continue;
      const int d = PopcountAnd(Row(u), cand.data(), words_);
      if (d > pivot_deg) {
        pivot = u;
        pivot_deg = d;
      }
    }

    // Branch over the pivot first, then the pivot's non-neighbors, clearing
    // each processed vertex from the working set.
    auto& next = cand_[depth + 1];
    next.resize(words_);

    BigCount total{};
    // Working copy that loses processed vertices (held in `cand` itself —
    // restored by the caller never, because each depth owns its bitset and
    // the parent recomputes nothing; clearing is safe).
    // Pivot branch:
    {
      const std::uint64_t* row = Row(pivot);
      for (std::uint32_t w = 0; w < words_; ++w) next[w] = cand[w] & row[w];
      total += Recurse(depth + 1, r, np + 1);
      cand[pivot / 64] &= ~(std::uint64_t{1} << (pivot % 64));
    }
    // Non-neighbor branches, ascending id:
    for (std::uint32_t u = 0; u < n_; ++u) {
      if (!TestBit(cand.data(), u) || TestBit(Row(pivot), u)) continue;
      const std::uint64_t* row = Row(u);
      for (std::uint32_t w = 0; w < words_; ++w) next[w] = cand[w] & row[w];
      total += Recurse(depth + 1, r + 1, np);
      cand[u / 64] &= ~(std::uint64_t{1} << (u % 64));
    }
    return total;
  }

  std::uint32_t k_;
  const BinomialTable* binom_;
  std::uint32_t n_ = 0;
  std::size_t words_ = 0;
  SubgraphBitmap sg_;
  std::vector<std::vector<std::uint64_t>> cand_;
};

}  // namespace

GpuPivotModelResult CountCliquesGpuPivotModel(const Graph& dag,
                                              std::uint32_t k) {
  if (dag.undirected())
    throw std::invalid_argument(
        "CountCliquesGpuPivotModel: expected a directionalized DAG");
  if (k < 1)
    throw std::invalid_argument("CountCliquesGpuPivotModel: k must be >= 1");

  const NodeId n = dag.NumNodes();
  const std::uint32_t bound = static_cast<std::uint32_t>(dag.MaxDegree()) + 1;
  const BinomialTable binom(bound + 1);

  struct Worker {
    Worker(const Graph& graph, std::uint32_t k_arg,
           const BinomialTable* binom_arg)
        : engine(graph, k_arg, binom_arg) {}
    GpuPivotWorker engine;
    BigCount local{};
  };

  Timer timer;
  GpuPivotModelResult result;
  BigCount total{};
  ExecOptions exec_options;
  exec_options.grain = 64;
  exec_options.cost = [&dag](std::size_t v) {
    return static_cast<double>(dag.Degree(static_cast<NodeId>(v)) + 1);
  };
  ParallelForWorkers(
      n, exec_options, [&](int) { return Worker(dag, k, &binom); },
      [](Worker& w, std::size_t v) {
        w.local += w.engine.ProcessRoot(static_cast<NodeId>(v));
      },
      [&](Worker& w) {
        total += w.local;
        result.workspace_bytes += w.engine.WorkspaceBytes();
      });
  result.total = total;
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace pivotscale

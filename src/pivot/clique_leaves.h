// The leaf rules of the pivoting recursion, shared by both kernels
// (PivotCounter in pivot/pivoter.h and BitmapCounter in
// pivot/bitmap_counter.h), so each rule exists exactly once.
//
// A recursion node holds r *required* vertices and np *pivots* on its
// path. A leaf contributes C(np, k - r) k-cliques: every clique formed by
// the required vertices plus any (k-r)-subset of the pivots. In per-vertex
// mode each required vertex is in all of them, and each pivot in
// C(np-1, k-r-1) (the cliques that chose it); the kernels report the path
// through PushRequired/PushPivot with original vertex ids.
//
// More generally, the subtree of a node with candidate set P holds every
// clique made of the required vertices, any subset of the pivots and any
// clique inside P, each exactly once: sum_j c_j(P) * C(np, k - r - j)
// k-cliques, where c_j(P) counts the j-cliques of G[P] (c_0 = 1,
// c_1 = |P|, c_2 = |E(P)|, c_3 = its triangles). Once r >= k - 3 only
// j <= 3 contributes, so the closed-form tail settles such a node from
// these counts instead of recursing: at r = k - 1 inside Visit, deeper
// through Tail after the kernel's scan of P. The bitmap kernel scans for
// |E(P)| and c_3(P) and settles r = k - 2 and k - 3; PivotCounter sums
// in-set degrees only and settles r = k - 2.
//
// kSingleK folds each leaf into one k-clique total. With early termination
// it also rules out a short root before the kernel builds its subgraph:
// SkipsRoot is the `r + np + |P| < k` rule at the root, where r = 1,
// np = 0 and |P| is the root's out-degree.
//
// The all-size modes record each leaf's (r, np) pair once in a
// CliqueProfile (pivot/profile.h), whose merge answers every size after
// the run: kAllK walks the full tree, so its profile is exact for every
// size; kAllUpToK prunes above k and settles its tail as the leaves
// (r + j, np), c_j(P) times each, so its profile is exact for sizes up to
// k only.
//
// The mode and per-vertex attribution are compile-time: a kernel is
// instantiated for one CountPolicy, picked once per run by
// WithCountPolicy, so no rule below the root tests them.
#ifndef PIVOTSCALE_PIVOT_CLIQUE_LEAVES_H_
#define PIVOTSCALE_PIVOT_CLIQUE_LEAVES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "pivot/profile.h"
#include "util/binomial.h"
#include "util/check.h"
#include "util/uint128.h"

namespace pivotscale {

// What the counter accumulates.
enum class CountMode {
  kSingleK,   // k-cliques of exactly the target size
  kAllK,      // every clique size up to the largest present
  kAllUpToK,  // every clique size up to k (Section V-A: the original
              // Pivoter's per-size mode, with pruning above k)
};

// The (mode, per-vertex) pair a kernel is compiled for. Per-vertex counts
// exist in kSingleK only, so there are four policies.
template <CountMode Mode, bool PerVertex = false>
struct CountPolicy {
  static_assert(!PerVertex || Mode == CountMode::kSingleK,
                "per-vertex counts are kSingleK only");
  static constexpr CountMode kMode = Mode;
  static constexpr bool kPerVertex = PerVertex;
  // The closed-form tail. Per-vertex attribution needs each member's id,
  // and kAllK has no upper size, so both keep the full recursion.
  static constexpr bool kTail = !PerVertex && Mode != CountMode::kAllK;
};
using SingleKPolicy = CountPolicy<CountMode::kSingleK>;
using PerVertexPolicy = CountPolicy<CountMode::kSingleK, true>;
using AllKPolicy = CountPolicy<CountMode::kAllK>;
using AllUpToKPolicy = CountPolicy<CountMode::kAllUpToK>;

// Returns f(Policy{}) for the policy of a run's mode and per_vertex flag.
template <typename F>
decltype(auto) WithCountPolicy(CountMode mode, bool per_vertex, F&& f) {
  CHECK(!per_vertex || mode == CountMode::kSingleK)
      << "per-vertex counts are kSingleK only";
  if (per_vertex) return std::forward<F>(f)(PerVertexPolicy{});
  switch (mode) {
    case CountMode::kSingleK:
      return std::forward<F>(f)(SingleKPolicy{});
    case CountMode::kAllK:
      return std::forward<F>(f)(AllKPolicy{});
    case CountMode::kAllUpToK:
      break;
  }
  return std::forward<F>(f)(AllUpToKPolicy{});
}

// What a node does next, once CliqueLeaves::Visit has seen it.
enum class NodeStep {
  kSettled,   // counted (or contributes to no tracked size): return
  kTailScan,  // scan P and settle it through CliqueLeaves::Tail
  kExpand,    // pivot scan and branches
};

// One worker's clique totals and the rules that feed them, for one
// CountPolicy.
template <typename Policy>
class CliqueLeaves {
 public:
  static constexpr CountMode kMode = Policy::kMode;

  // `max_clique_bound` bounds every pivot count; the DAG's max out-degree
  // + 1 is always a valid bound (a clique of size c forces its root's
  // out-degree to be at least c - 1). `binom` must cover Choose(n, *) for
  // n <= max_clique_bound and is shared read-only across threads.
  // `early_termination` off (an ablation) also turns the tail off.
  CliqueLeaves(NodeId num_nodes, std::uint32_t k,
               std::uint32_t max_clique_bound, const BinomialTable* binom,
               bool early_termination)
      : k_(k), early_termination_(early_termination), binom_(binom) {
    CHECK(binom != nullptr);
    CHECK_GE(k, 1u);
    // The leaf rule consults C(np, *) for np up to the bound; a short
    // table would silently read out of range mid-count.
    CHECK_GE(binom->max_n(), max_clique_bound)
        << "CliqueLeaves: binomial table does not cover the clique bound";
    if constexpr (Policy::kPerVertex)
      per_vertex_counts_.assign(num_nodes, BigCount{});
  }

  // Path bookkeeping for per-vertex attribution (original vertex ids);
  // kernels call the push/pop pairs only under PerVertexPolicy.
  void SetRoot(NodeId root) { root_ = root; }
  void PushRequired(NodeId v) { required_.push_back(v); }
  void PopRequired() { required_.pop_back(); }
  void PushPivot(NodeId v) { pivots_.push_back(v); }
  void PopPivots(std::size_t count) {
    pivots_.resize(pivots_.size() - count);
  }

  // Whether a root with `out_degree` out-neighbors can be skipped before
  // its subgraph is built: Visit would settle it at once by the
  // `r + np + candidates < k` rule below, since it roots no k-clique
  // (Pivoter's bound, Jain & Seshadhri). kSingleK with early termination
  // only; the all-size modes need a short root's smaller cliques.
  bool SkipsRoot(std::size_t out_degree) const {
    if constexpr (kMode == CountMode::kSingleK)
      return early_termination_ && out_degree + 1 < k_;
    else
      return false;
  }

  // The checks a node makes before its pivot scan, with `candidates`
  // vertices left. A node is settled here when it was counted (no
  // candidates left, early termination at r == k, or the tail's first
  // level) or can contribute to no tracked size. A node the tail settles
  // after a scan of P, at r >= k - `tail_levels` (2 or 3: the deepest
  // c_j(P) the kernel's scan computes), gets kTailScan.
  NodeStep Visit(std::uint32_t r, std::uint32_t np, std::size_t candidates,
                 std::uint32_t tail_levels) {
    // Required vertices beyond k contribute to no tracked size.
    if constexpr (kMode == CountMode::kAllUpToK) {
      if (r > k_) return NodeStep::kSettled;
    }
    bool tail_scan = false;
    if (early_termination_) {
      if constexpr (kMode == CountMode::kSingleK) {
        // Early termination (Section V-A): once the required set alone
        // reaches k, the subtree holds exactly one k-clique — the required
        // set itself (any deeper leaf with r' = k shares it). Disabling
        // this is a pure ablation: the recursion stays correct, just
        // slower.
        if (r == k_) {
          Leaf(r, np);
          return NodeStep::kSettled;
        }
        // Even taking every remaining candidate cannot reach k.
        if (r + np + candidates < k_) return NodeStep::kSettled;
      }
      if constexpr (Policy::kTail) {
        // Closed-form tail, first level: cliques of P add at most one
        // vertex.
        if (r + 1 >= k_) {
          Tail(r, np, candidates, 0, 0);
          return NodeStep::kSettled;
        }
        tail_scan = r + tail_levels >= k_;
      }
    }
    if (candidates == 0) {
      Leaf(r, np);
      return NodeStep::kSettled;
    }
    return tail_scan ? NodeStep::kTailScan : NodeStep::kExpand;
  }

  std::uint32_t k() const { return k_; }

  // Closed-form tail: adds sum_{j<=3} c_j(P) * C(np, k - r - j), with
  // c_1 = `vertices`, c_2 = `edges` (0 unless r <= k - 2) and
  // c_3 = `triangles` (0 unless r = k - 3), to every tracked size;
  // kAllUpToK records it as the leaves those terms stand for.
  void Tail(std::uint32_t r, std::uint32_t np, std::uint64_t vertices,
            std::uint64_t edges, std::uint64_t triangles) {
    static_assert(Policy::kTail);
    DCHECK_GE(r + 3, k_);
    if (r > k_) return;
    const std::uint32_t rest = k_ - r;  // at most 3
    DCHECK(edges == 0 || rest >= 2);
    DCHECK(triangles == 0 || rest == 3);
    const std::uint64_t terms[4] = {1, vertices, edges, triangles};
    if constexpr (kMode == CountMode::kSingleK) {
      // Every term is below 2^96 (np, |P| and |E(P)| fit 32, 32 and 64
      // bits), so the sum is exact in 128 bits.
      uint128 cliques = 0;
      for (std::uint32_t j = 0; j <= rest; ++j)
        cliques += terms[j] * binom_->Choose(np, rest - j);
      total_ += cliques;
    } else {
      for (std::uint32_t j = 0; j <= rest; ++j)
        if (terms[j] != 0) profile_.Add(r + j, np, terms[j]);
    }
  }

  // A leaf with r required vertices and np pivots on the path (the pivots
  // pushed last are the path's, under PerVertexPolicy).
  void Leaf(std::uint32_t r, std::uint32_t np) {
    if constexpr (kMode == CountMode::kSingleK)
      LeafSingleK(r, np);
    else
      profile_.Add(r, np);
  }

  // k-cliques counted (kSingleK).
  BigCount total() const { return total_; }
  // The leaf histogram (kAllK / kAllUpToK; empty in kSingleK).
  const CliqueProfile& profile() const { return profile_; }
  // Per-vertex k-clique participation counts (PerVertexPolicy).
  const std::vector<BigCount>& per_vertex_counts() const {
    return per_vertex_counts_;
  }

 private:
  void LeafSingleK(std::uint32_t r, std::uint32_t np) {
    if (k_ < r || k_ - r > np) return;
    const BigCount cliques = binom_->Choose(np, k_ - r);
    total_ += cliques;
    if constexpr (Policy::kPerVertex) {
      if (cliques == BigCount{}) return;
      per_vertex_counts_[root_] += cliques;
      for (NodeId u : required_) per_vertex_counts_[u] += cliques;
      if (k_ > r) {
        const BigCount per_pivot = binom_->Choose(np - 1, k_ - r - 1);
        for (NodeId u : pivots_) per_vertex_counts_[u] += per_pivot;
      }
    }
  }

  std::uint32_t k_;
  bool early_termination_;
  const BinomialTable* binom_;

  NodeId root_ = 0;
  BigCount total_{};
  CliqueProfile profile_;
  std::vector<BigCount> per_vertex_counts_;
  std::vector<NodeId> required_;  // PerVertexPolicy only
  std::vector<NodeId> pivots_;    // PerVertexPolicy only
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_CLIQUE_LEAVES_H_

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
// c_1 = |P|, c_2 = |E(P)|). Once r >= k - 2 only j <= 2 contributes, so
// the closed-form tail settles such a node from |P| and |E(P)| instead of
// recursing: at r = k - 1 inside Settled, at r = k - 2 through Tail after
// the kernel's in-set degree scan.
//
// kSingleK folds each leaf into one k-clique total. The all-size modes
// record each leaf's (r, np) pair once in a CliqueProfile
// (pivot/profile.h), whose merge answers every size after the run: kAllK
// walks the full tree, so its profile is exact for every size; kAllUpToK
// prunes above k and settles its tail as the leaves (r, np), (r + 1, np)
// per vertex of P and (r + 2, np) per edge of P, so its profile is exact
// for sizes up to k only.
#ifndef PIVOTSCALE_PIVOT_CLIQUE_LEAVES_H_
#define PIVOTSCALE_PIVOT_CLIQUE_LEAVES_H_

#include <cstdint>
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

// One worker's clique totals and the rules that feed them.
class CliqueLeaves {
 public:
  // `max_clique_bound` bounds every pivot count; the DAG's max out-degree
  // + 1 is always a valid bound (a clique of size c forces its root's
  // out-degree to be at least c - 1). `binom` must cover Choose(n, *) for
  // n <= max_clique_bound and is shared read-only across threads.
  CliqueLeaves(NodeId num_nodes, CountMode mode, std::uint32_t k,
               bool per_vertex, std::uint32_t max_clique_bound,
               const BinomialTable* binom, bool early_termination)
      : mode_(mode),
        k_(k),
        per_vertex_(per_vertex),
        early_termination_(early_termination),
        // Per-vertex attribution needs each member's id, and kAllK has no
        // upper size, so both keep the full recursion.
        tail_(early_termination && !per_vertex && mode != CountMode::kAllK),
        binom_(binom) {
    CHECK(binom != nullptr);
    CHECK_GE(k, 1u);
    // The leaf rule consults C(np, *) for np up to the bound; a short
    // table would silently read out of range mid-count.
    CHECK_GE(binom->max_n(), max_clique_bound)
        << "CliqueLeaves: binomial table does not cover the clique bound";
    if (per_vertex_) per_vertex_counts_.assign(num_nodes, BigCount{});
  }

  bool per_vertex() const { return per_vertex_; }

  // Path bookkeeping for per-vertex attribution (original vertex ids);
  // kernels call the push/pop pairs only when per_vertex() is set.
  void SetRoot(NodeId root) { root_ = root; }
  void PushRequired(NodeId v) { required_.push_back(v); }
  void PopRequired() { required_.pop_back(); }
  void PushPivot(NodeId v) { pivots_.push_back(v); }
  void PopPivots(std::size_t count) {
    pivots_.resize(pivots_.size() - count);
  }

  // The checks a node makes before its pivot scan, with `candidates`
  // vertices left. True when the node needs no expansion: it was counted
  // here (no candidates left, or early termination at r == k) or it can
  // contribute to no tracked size.
  bool Settled(std::uint32_t r, std::uint32_t np, std::size_t candidates) {
    if (mode_ == CountMode::kSingleK && early_termination_) {
      // Early termination (Section V-A): once the required set alone
      // reaches k, the subtree holds exactly one k-clique — the required
      // set itself (any deeper leaf with r' = k shares it). Disabling this
      // is a pure ablation: the recursion stays correct, just slower.
      if (r == k_) {
        Leaf(r, np);
        return true;
      }
      // Even taking every remaining candidate cannot reach k.
      if (r + np + candidates < k_) return true;
    }
    // Required vertices beyond k contribute to no tracked size.
    if (mode_ == CountMode::kAllUpToK && r > k_) return true;
    // Closed-form tail, first level: cliques of P add at most one vertex.
    if (tail_ && r + 1 >= k_) {
      Tail(r, np, candidates, 0);
      return true;
    }
    if (candidates == 0) {
      Leaf(r, np);
      return true;
    }
    return false;
  }

  // True when a node that Settled left open is at the tail's second level
  // (r = k - 2): the kernel sums the in-set degrees of P in place of its
  // pivot scan and settles the node through Tail, with |E(P)| = sum / 2.
  bool AtEdgeTail(std::uint32_t r) const { return tail_ && r + 2 == k_; }

  // Closed-form tail: adds sum_{j<=2} c_j(P) * C(np, k - r - j), with
  // c_1 = `vertices` and c_2 = `edges` (0 unless r = k - 2), to every
  // tracked size; kAllUpToK records it as the leaves those terms stand for.
  void Tail(std::uint32_t r, std::uint32_t np, std::uint64_t vertices,
            std::uint64_t edges) {
    DCHECK(tail_);
    DCHECK_GE(r + 2, k_);
    DCHECK(edges == 0 || r + 2 == k_);
    if (r > k_) return;
    const std::uint32_t rest = k_ - r;  // at most 2
    if (mode_ == CountMode::kSingleK) {
      // Every term is below 2^64 (np and |P| fit 32 bits), so the sum is
      // exact in 128 bits.
      uint128 cliques = binom_->Choose(np, rest) + edges;
      if (rest > 0) cliques += vertices * binom_->Choose(np, rest - 1);
      total_ += cliques;
      return;
    }
    profile_.Add(r, np);
    if (vertices != 0 && rest > 0) profile_.Add(r + 1, np, vertices);
    if (edges != 0) profile_.Add(r + 2, np, edges);
  }

  // A leaf with r required vertices and np pivots on the path (the pivots
  // pushed last are the path's, in per-vertex mode).
  void Leaf(std::uint32_t r, std::uint32_t np) {
    if (mode_ == CountMode::kSingleK) {
      LeafSingleK(r, np);
      return;
    }
    profile_.Add(r, np);
  }

  // k-cliques counted (kSingleK).
  BigCount total() const { return total_; }
  // The leaf histogram (kAllK / kAllUpToK; empty in kSingleK).
  const CliqueProfile& profile() const { return profile_; }
  // Per-vertex k-clique participation counts (per_vertex mode).
  const std::vector<BigCount>& per_vertex_counts() const {
    return per_vertex_counts_;
  }

 private:
  void LeafSingleK(std::uint32_t r, std::uint32_t np) {
    if (k_ < r || k_ - r > np) return;
    const BigCount cliques = binom_->Choose(np, k_ - r);
    total_ += cliques;
    if (per_vertex_ && cliques != BigCount{}) {
      per_vertex_counts_[root_] += cliques;
      for (NodeId u : required_) per_vertex_counts_[u] += cliques;
      if (k_ > r) {
        const BigCount per_pivot = binom_->Choose(np - 1, k_ - r - 1);
        for (NodeId u : pivots_) per_vertex_counts_[u] += per_pivot;
      }
    }
  }

  CountMode mode_;
  std::uint32_t k_;
  bool per_vertex_;
  bool early_termination_;
  bool tail_;  // closed-form tail on (see the file comment)
  const BinomialTable* binom_;

  NodeId root_ = 0;
  BigCount total_{};
  CliqueProfile profile_;
  std::vector<BigCount> per_vertex_counts_;
  std::vector<NodeId> required_;  // per-vertex mode only
  std::vector<NodeId> pivots_;    // per-vertex mode only
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_CLIQUE_LEAVES_H_

// The Pivoter counting recursion (Algorithm 1 + Section V details),
// templated over the subgraph structure and the stats policy.
//
// Per root vertex v of the DAG, Build() induces the (symmetrized) subgraph
// on N+(v) and the recursion runs Bron-Kerbosch with pivoting over it,
// maintaining only the candidate set P (Section V-B streamlines away R and
// X). Each tree path tracks the number of *required* vertices r and the
// number of *pivots* np; a leaf contributes C(np, k - r) k-cliques — every
// clique formed by the required vertices plus any (k-r)-subset of the path's
// pivots — and each clique is generated exactly once because every branch
// removes its vertex from the candidate pool of later branches (the
// "direct by identifier among non-neighbors" rule of Section V-A).
//
// Reversible mutations: descending into the branch of w narrows every
// surviving vertex's adjacency list, in place, so that a prefix of length
// deg(u) holds exactly the neighbors inside the new candidate set. The old
// prefix lengths go on an undo stack; ascent restores them. Partitioning
// permutes entries only within the parent's prefix, so restoring the length
// restores the set. All buffers are reused across roots: steady-state
// counting performs no allocation (Section V-B).
#ifndef PIVOTSCALE_PIVOT_PIVOTER_H_
#define PIVOTSCALE_PIVOT_PIVOTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "pivot/clique_leaves.h"
#include "pivot/stats.h"
#include "util/binomial.h"
#include "util/check.h"
#include "util/uint128.h"

namespace pivotscale {

// One thread's counting engine. SG is one of {DenseSubgraph,
// SparseSubgraph, RemapSubgraph}; Stats is a policy from pivot/stats.h and
// Policy a CountPolicy (pivot/clique_leaves.h).
template <typename SG, typename Stats, typename Policy>
class PivotCounter {
 public:
  using Id = typename SG::Id;

  // Arguments as for CliqueLeaves (pivot/clique_leaves.h).
  PivotCounter(const Graph& dag, std::uint32_t k,
               std::uint32_t max_clique_bound, const BinomialTable* binom,
               bool early_termination = true)
      : leaves_(dag.NumNodes(), k, max_clique_bound, binom,
                early_termination) {
    sg_.Attach(dag);
  }

  // Counts all cliques rooted at `root` and accumulates into this counter.
  void ProcessRoot(NodeId root) {
    sg_.Build(root);
    const auto verts = sg_.Vertices();
    EnsureDepth(verts.size() + 2);
    // The root itself is the first required vertex (r = 1).
    leaves_.SetRoot(root);
    bufs_[0].assign(verts.begin(), verts.end());
    Recurse(bufs_[0], /*r=*/1, /*np=*/0, /*depth=*/0);
  }

  BigCount total() const { return leaves_.total(); }
  const CliqueProfile& profile() const { return leaves_.profile(); }
  const std::vector<BigCount>& per_vertex_counts() const {
    return leaves_.per_vertex_counts();
  }
  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }
  std::size_t WorkspaceBytes() const { return sg_.HeapBytes(); }
  const SG& subgraph() const { return sg_; }

 private:
  void EnsureDepth(std::size_t depth) {
    if (bufs_.size() < depth) {
      bufs_.resize(depth);
      branch_bufs_.resize(depth);
    }
  }

  void Recurse(std::span<const Id> candidates, std::uint32_t r,
               std::uint32_t np, std::uint32_t depth) {
    stats_.OnCall();
    // This kernel's scan sums in-set degrees only: its tail settles
    // r = k - 2 at the latest.
    const NodeStep step = leaves_.Visit(r, np, candidates.size(), 2);
    if (step == NodeStep::kSettled) return;

    // Pivot: the candidate with the most neighbors inside the set. Its
    // neighbors need no branches of their own — they are all reachable
    // through the pivot's branch as optional (pivot) vertices.
    // The same scan sums the in-set degrees, 2 |E(P)|, for the
    // closed-form tail (pivot/clique_leaves.h).
    Id pivot = candidates[0];
    std::uint32_t pivot_deg = sg_.Deg(pivot);
    std::uint64_t degree_sum = 0;
    for (Id u : candidates) {
      const std::uint32_t d = sg_.Deg(u);
      if constexpr (Stats::kTrace)
        stats_.OnTouch(TouchRegion::kDeg, sg_.ModelIndex(u));
      degree_sum += d;
      if (d > pivot_deg) {
        pivot = u;
        pivot_deg = d;
      }
    }
    if constexpr (Policy::kTail) {
      if (step == NodeStep::kTailScan) {
        leaves_.Tail(r, np, candidates.size(), degree_sum / 2, 0);
        return;
      }
    }

    // Branch list: the pivot first, then the non-neighbors of the pivot.
    auto& branches = branch_bufs_[depth];
    branches.clear();
    branches.push_back(pivot);
    for (Id v : sg_.AdjPrefix(pivot)) {
      sg_.Mark(v);
      stats_.OnEdgeOp();
    }
    for (Id u : candidates) {
      stats_.OnMembership();
      if constexpr (Stats::kTrace)
        stats_.OnTouch(TouchRegion::kFlags, sg_.ModelIndex(u));
      if (u != pivot && !sg_.Marked(u)) branches.push_back(u);
    }
    for (Id v : sg_.AdjPrefix(pivot)) sg_.Unmark(v);

    for (Id w : branches) {
      const bool is_pivot_branch = (w == pivot);

      // Child candidate set: N(w) within the current set, minus vertices
      // whose branches already ran at this level.
      auto& child = bufs_[depth + 1];
      child.clear();
      for (Id v : sg_.AdjPrefix(w)) {
        stats_.OnEdgeOp();
        stats_.OnMembership();
        if constexpr (Stats::kTrace)
          stats_.OnTouch(TouchRegion::kAdjData,
                         AdjIndex(sg_.ModelIndex(w), child.size()));
        if (!sg_.Removed(v)) child.push_back(v);
      }

      // Reversible narrowing: every child member's prefix shrinks to its
      // neighbors inside `child`. One undo frame per branch descent.
      stats_.OnInduce();
      const std::size_t undo_top = undo_.size();
      for (Id v : child) sg_.Mark(v);
      for (Id v : child) {
        auto adj = sg_.AdjPrefix(v);
        if constexpr (Stats::kTrace)
          stats_.OnTouch(TouchRegion::kAdjRow, sg_.ModelIndex(v));
        std::uint32_t kept = 0;
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(adj.size()); ++i) {
          stats_.OnEdgeOp();
          if (sg_.Marked(adj[i])) std::swap(adj[kept++], adj[i]);
        }
        undo_.push_back({v, sg_.Deg(v)});
        sg_.SetDeg(v, kept);
      }
      for (Id v : child) sg_.Unmark(v);

      if constexpr (Policy::kPerVertex) {
        if (is_pivot_branch)
          leaves_.PushPivot(sg_.OrigId(w));
        else
          leaves_.PushRequired(sg_.OrigId(w));
      }

      Recurse(child, r + (is_pivot_branch ? 0 : 1),
              np + (is_pivot_branch ? 1 : 0), depth + 1);

      if constexpr (Policy::kPerVertex) {
        if (is_pivot_branch)
          leaves_.PopPivots(1);
        else
          leaves_.PopRequired();
      }

      // Ascend: restore every narrowed prefix length.
      while (undo_.size() > undo_top) {
        const UndoRecord rec = undo_.back();
        undo_.pop_back();
        sg_.SetDeg(rec.vertex, rec.old_deg);
      }

      // This branch's vertex leaves the pool for all later branches.
      sg_.SetRemoved(w);
    }
    // Restore the removed flags so the parent level sees its own pool.
    for (Id w : branches) sg_.ClearRemoved(w);
  }

  // Modeled flat index of adjacency payload accesses (trace policy only):
  // row-granular so dense structures spread across the full id space.
  std::uint64_t AdjIndex(Id u, std::size_t i) const {
    return static_cast<std::uint64_t>(u) * 64 +
           (static_cast<std::uint64_t>(i) & 63);
  }

  SG sg_;
  Stats stats_;
  CliqueLeaves<Policy> leaves_;

  struct UndoRecord {
    Id vertex;
    std::uint32_t old_deg;
  };
  std::vector<UndoRecord> undo_;
  std::vector<std::vector<Id>> bufs_;         // per-depth candidate sets
  std::vector<std::vector<Id>> branch_bufs_;  // per-depth branch lists
};

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_PIVOTER_H_

// Shared helpers for the test suite: a brute-force k-clique counter used as
// ground truth, plus small convenience builders.
#ifndef PIVOTSCALE_TESTS_TEST_HELPERS_H_
#define PIVOTSCALE_TESTS_TEST_HELPERS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/builder.h"
#include "graph/dag.h"
#include "graph/graph.h"
#include "order/ordering.h"
#include "pivot/clique_leaves.h"
#include "pivot/count_on.h"
#include "pivot/profile.h"
#include "pivot/stats.h"
#include "util/binomial.h"
#include "util/check.h"
#include "util/uint128.h"

namespace pivotscale {
namespace testing_helpers {

// Brute-force k-clique counting by ordered extension: each partial clique
// is extended only with higher-numbered vertices adjacent to every member.
// Exponential — use only on small graphs. This is the ground truth every
// production counter is validated against.
inline std::uint64_t BruteForceCountRecurse(
    const Graph& g, std::vector<NodeId>& clique, NodeId next,
    std::uint32_t k) {
  if (clique.size() == k) return 1;
  std::uint64_t total = 0;
  for (NodeId v = next; v < g.NumNodes(); ++v) {
    bool adjacent_to_all = true;
    for (NodeId u : clique) {
      if (!g.HasEdge(u, v)) {
        adjacent_to_all = false;
        break;
      }
    }
    if (adjacent_to_all) {
      clique.push_back(v);
      total += BruteForceCountRecurse(g, clique, v + 1, k);
      clique.pop_back();
    }
  }
  return total;
}

inline std::uint64_t BruteForceCount(const Graph& g, std::uint32_t k) {
  if (k == 0) return 1;  // the empty clique
  std::vector<NodeId> clique;
  return BruteForceCountRecurse(g, clique, 0, k);
}

// counts[s] = the number of s-cliques for every s in [0, max_k], from one
// ordered-extension enumeration: each partial clique carries its
// candidates (the higher-numbered vertices adjacent to every member), so
// an extension filters that list instead of re-checking the members, and
// the largest size is tallied from its parents' candidate counts. One
// pass gives every size BruteForceCount enumerates one at a time.
inline std::vector<std::uint64_t> BruteForceCountsUpTo(const Graph& g,
                                                       std::uint32_t max_k) {
  const std::size_t n = g.NumNodes();
  std::vector<std::uint8_t> adjacent(n * n, 0);
  for (NodeId u = 0; u < n; ++u)
    for (const NodeId v : g.Neighbors(u)) adjacent[u * n + v] = 1;
  std::vector<std::uint64_t> counts(max_k + 1, 0);
  counts[0] = 1;
  // Tallies the cliques that extend a `size`-clique whose candidates are
  // `candidates`, and recurses into each.
  const auto extend = [&](const auto& self,
                          const std::vector<NodeId>& candidates,
                          std::uint32_t size) -> void {
    if (size == max_k) return;
    counts[size + 1] += candidates.size();
    if (size + 1 == max_k) return;
    std::vector<NodeId> next;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      next.clear();
      for (std::size_t j = i + 1; j < candidates.size(); ++j)
        if (adjacent[candidates[i] * n + candidates[j]])
          next.push_back(candidates[j]);
      self(self, next, size + 1);
    }
  };
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  extend(extend, all, 0);
  return counts;
}

// Brute-force per-vertex participation: clique counts that contain vertex v.
inline std::vector<std::uint64_t> BruteForcePerVertex(const Graph& g,
                                                      std::uint32_t k) {
  std::vector<std::uint64_t> counts(g.NumNodes(), 0);
  std::vector<NodeId> clique;
  // Enumerate all k-cliques and attribute to each member.
  struct Enumerator {
    const Graph& g;
    std::uint32_t k;
    std::vector<std::uint64_t>& counts;
    std::vector<NodeId> clique;
    void Go(NodeId next) {
      if (clique.size() == k) {
        for (NodeId u : clique) ++counts[u];
        return;
      }
      for (NodeId v = next; v < g.NumNodes(); ++v) {
        bool ok = true;
        for (NodeId u : clique)
          if (!g.HasEdge(u, v)) {
            ok = false;
            break;
          }
        if (ok) {
          clique.push_back(v);
          Go(v + 1);
          clique.pop_back();
        }
      }
    }
  } e{g, k, counts, {}};
  e.Go(0);
  return counts;
}

// Every kernel CountCliquesOn (pivot/count_on.h) can name: the paper's
// three structures and the production bitmap kernel.
inline constexpr SubgraphKind kAllSubgraphKinds[] = {
    SubgraphKind::kDense, SubgraphKind::kSparse, SubgraphKind::kRemap,
    SubgraphKind::kBitmap};

// Directionalizes by a given ordering spec — the common test preamble.
inline Graph MakeDag(const Graph& g, OrderingKind kind) {
  OrderingSpec spec;
  spec.kind = kind;
  const Ordering ordering = ComputeOrdering(g, spec);
  return Directionalize(g, ordering.ranks);
}

// Totals of one counting kernel run serially over every root of a DAG.
struct KernelTotals {
  BigCount total{};                 // kSingleK
  CliqueProfile profile;            // kAllK / kAllUpToK
  std::vector<BigCount> per_size;   // from `profile`, as the driver derives it
  std::vector<BigCount> per_vertex;
  OpCounters ops;
};

// Runs kernel `Counter` — a template over the count policy, such as
// PivotCounter<SG, Stats, Policy> or BitmapCounter<Stats, Policy> with SG
// and Stats fixed — over every root of `dag` on one thread, at the policy
// of `mode` and `per_vertex`: no driver and no kernel choice, so each
// kernel can be checked on its own.
template <template <typename> class Counter>
KernelTotals RunKernel(const Graph& dag, CountMode mode, std::uint32_t k,
                       bool per_vertex = false, bool early_termination = true) {
  const auto bound = static_cast<std::uint32_t>(dag.MaxDegree()) + 1;
  const BinomialTable binom(bound + 1);
  KernelTotals out;
  WithCountPolicy(mode, per_vertex, [&](auto policy) {
    Counter<decltype(policy)> counter(dag, k, bound, &binom,
                                      early_termination);
    for (NodeId v = 0; v < dag.NumNodes(); ++v) counter.ProcessRoot(v);
    out.total = counter.total();
    out.profile = counter.profile();
    out.per_vertex = counter.per_vertex_counts();
    out.ops = counter.stats().Snapshot();
  });
  const std::uint32_t max_size =
      mode == CountMode::kAllUpToK ? std::min(k, bound + 1) : bound + 1;
  out.per_size = out.profile.PerSize(max_size);
  out.per_size.resize(bound + 2);
  if (mode != CountMode::kSingleK)
    out.total = k <= max_size ? out.per_size[k] : BigCount{};
  return out;
}

}  // namespace testing_helpers
}  // namespace pivotscale

#endif  // PIVOTSCALE_TESTS_TEST_HELPERS_H_

// Maximal clique enumeration (Bron-Kerbosch with pivoting over a
// degeneracy-ordered outer loop — Eppstein, Löffler & Strash).
//
// Pivoter counts k-cliques by aggregating over exactly this search tree
// (Section II-B); the library exposes the underlying enumerator as a
// first-class feature: counting maximal cliques (parallel over roots) and
// listing them through a callback. The outer loop processes each vertex v
// in core order with candidates P = later neighbors and excluded
// X = earlier neighbors, which bounds every subproblem by the degeneracy
// and guarantees each maximal clique is reported exactly once.
#ifndef PIVOTSCALE_PIVOT_MAXIMAL_H_
#define PIVOTSCALE_PIVOT_MAXIMAL_H_

#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/uint128.h"

namespace pivotscale {

struct MaximalCliqueStats {
  BigCount total{};                 // number of maximal cliques
  std::size_t largest = 0;          // size of the largest clique (omega)
  std::vector<BigCount> by_size;    // by_size[s] = maximal cliques of size s
  double seconds = 0;
};

// Counts all maximal cliques of the undirected graph. Parallel over roots.
// Isolated vertices count as maximal 1-cliques.
MaximalCliqueStats CountMaximalCliques(const Graph& g);

// Calls `fn` once per maximal clique with its (unsorted) member list.
// Sequential — intended for listing/percolation workloads where the
// callback dominates anyway.
void ForEachMaximalClique(
    const Graph& g, const std::function<void(std::span<const NodeId>)>& fn);

// Size of the largest clique (the clique number omega), via the same
// enumeration with max-tracking only.
std::size_t CliqueNumber(const Graph& g);

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_MAXIMAL_H_

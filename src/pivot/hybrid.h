// Hybrid exact k-clique counter (Section VI-H).
//
// "A hybrid algorithm which performs well for all clique sizes can easily
// be implemented by switching with a simple heuristic e.g. (k >= 8)":
// enumeration is faster for small k (its work grows with k but starts far
// below pivoting's fixed cost), pivoting for large k (its cost is nearly
// k-independent). This implements exactly that switch.
#ifndef PIVOTSCALE_PIVOT_HYBRID_H_
#define PIVOTSCALE_PIVOT_HYBRID_H_

#include <string>

#include "graph/graph.h"
#include "order/heuristic.h"
#include "util/uint128.h"

namespace pivotscale {

struct HybridConfig {
  // Switch point: k >= pivot_threshold uses pivoting (paper's example: 8).
  std::uint32_t pivot_threshold = 8;
  // Heuristic thresholds for the pivoting path's ordering selection.
  HeuristicConfig heuristic;
};

struct HybridResult {
  BigCount total{};
  bool used_pivoting = false;
  std::string strategy;  // "enumeration(core)" or "pivotscale(<ordering>)"
  double seconds = 0;
};

// Exact k-clique count via the better strategy for this k.
HybridResult CountKCliquesHybrid(const Graph& g, std::uint32_t k,
                                 const HybridConfig& config = {});

}  // namespace pivotscale

#endif  // PIVOTSCALE_PIVOT_HYBRID_H_

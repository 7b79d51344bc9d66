// Enumeration-based k-clique counting baseline (kclist / Arb-Count style).
//
// The classic DAG enumeration: per root vertex, the candidate set is the
// out-neighborhood; each level picks one candidate and intersects the
// candidate set with its out-neighborhood, so the chosen vertices always
// form a clique and each k-clique is generated exactly once in canonical
// (rank) order. Work grows combinatorially with k — the behaviour Figure 12
// contrasts against pivoting — so the driver supports a time budget and
// reports ">budget" runs as timed_out, mirroring the paper's ">2h" entries.
#ifndef PIVOTSCALE_BASELINES_ENUMERATION_H_
#define PIVOTSCALE_BASELINES_ENUMERATION_H_

#include <cstdint>

#include "graph/graph.h"
#include "util/uint128.h"

namespace pivotscale {

struct EnumerationOptions {
  std::uint32_t k = 8;
  double time_budget_seconds = 0;  // 0 = unlimited
};

struct EnumerationResult {
  BigCount total{};    // meaningless if timed_out
  double seconds = 0;
  bool timed_out = false;
};

// Counts k-cliques on a directionalized DAG by enumeration.
EnumerationResult CountCliquesEnumeration(const Graph& dag,
                                          const EnumerationOptions& options);

}  // namespace pivotscale

#endif  // PIVOTSCALE_BASELINES_ENUMERATION_H_

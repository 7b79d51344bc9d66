// Ordering types shared by all ordering implementations.
//
// An ordering is a rank permutation: ranks[u] is u's position in the total
// order, and directionalization keeps edge u -> v iff ranks[u] < ranks[v].
// Every ordering here breaks ties the same way the paper does: primary key
// first, then original degree, then vertex id — so all orderings are total.
#ifndef PIVOTSCALE_ORDER_ORDERING_H_
#define PIVOTSCALE_ORDER_ORDERING_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace pivotscale {

class TelemetryRegistry;

// A computed total order over the vertices of one graph.
struct Ordering {
  std::string name;            // e.g. "core", "approx-core(eps=-0.5)"
  std::vector<NodeId> ranks;   // permutation: ranks[u] in [0, n)
  // Synchronized parallel rounds the ordering ran (Figure 6): 1 for degree,
  // the peel rounds for approx-core, the peel sub-rounds for k-core, the
  // iterations for centrality, and -1 for the inherently serial exact core
  // peel.
  int rounds = 1;
};

// Ranks vertices ascending by (key[u], u). Keys need not be distinct;
// the id tiebreak makes the result a permutation.
std::vector<NodeId> RanksFromKeys(std::span<const std::uint64_t> keys);

// Packs (primary, degree) into one sortable 64-bit key: primary in the high
// 24 bits (clamped), degree in the low 40 (clamped). Used by orderings whose
// tiebreak is "original degree, then id".
std::uint64_t PackKey(std::uint64_t primary, std::uint64_t degree);

// The ordering families evaluated in the paper.
enum class OrderingKind {
  kDegree,      // degree ordering, one counting sort (Section II-A)
  kCore,        // exact sequential core/degeneracy ordering
  kApproxCore,  // parallel core approximation, Algorithm 2 (Section III-A)
  kKCore,       // parallel k-core decomposition ordering (Section III-B)
  kCentrality,  // eigenvector-centrality ordering (Section III-C)
};

// Parameters for ComputeOrdering; epsilon only applies to kApproxCore.
struct OrderingSpec {
  OrderingKind kind = OrderingKind::kCore;
  double epsilon = -0.5;
};

// Dispatches to the matching implementation. Convenient for benches that
// sweep ordering families. When `telemetry` is non-null, records the
// "ordering.rounds" gauge from Ordering::rounds.
Ordering ComputeOrdering(const Graph& g, const OrderingSpec& spec,
                         TelemetryRegistry* telemetry = nullptr);

// Human-readable name for a spec (matches Ordering::name).
std::string OrderingSpecName(const OrderingSpec& spec);

// Parses a command-line --ordering name: "core", "approx" (carries `eps`),
// "kcore", "centrality" or "degree". Throws
// std::runtime_error naming any other value.
OrderingSpec ParseOrderingSpec(const std::string& name, double eps);

}  // namespace pivotscale

#endif  // PIVOTSCALE_ORDER_ORDERING_H_

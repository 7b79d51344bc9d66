#include "order/ordering.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "order/approx_core_order.h"
#include "order/centrality_order.h"
#include "order/core_order.h"
#include "order/degree_order.h"
#include "order/kcore_order.h"
#include "util/telemetry.h"

namespace pivotscale {

std::vector<NodeId> RanksFromKeys(std::span<const std::uint64_t> keys) {
  const std::size_t n = keys.size();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    return a < b;
  });
  std::vector<NodeId> ranks(n);
  for (std::size_t pos = 0; pos < n; ++pos)
    ranks[order[pos]] = static_cast<NodeId>(pos);
  return ranks;
}

std::uint64_t PackKey(std::uint64_t primary, std::uint64_t degree) {
  constexpr std::uint64_t kDegreeBits = 40;
  constexpr std::uint64_t kDegreeMask = (std::uint64_t{1} << kDegreeBits) - 1;
  constexpr std::uint64_t kPrimaryMax =
      (std::uint64_t{1} << (64 - kDegreeBits)) - 1;
  const std::uint64_t p = std::min(primary, kPrimaryMax);
  const std::uint64_t d = std::min(degree, kDegreeMask);
  return (p << kDegreeBits) | d;
}

Ordering ComputeOrdering(const Graph& g, const OrderingSpec& spec,
                         TelemetryRegistry* telemetry) {
  Ordering ordering = [&] {
    switch (spec.kind) {
      case OrderingKind::kDegree:
        return DegreeOrdering(g);
      case OrderingKind::kCore:
        return CoreOrdering(g);
      case OrderingKind::kApproxCore:
        return ApproxCoreOrdering(g, spec.epsilon);
      case OrderingKind::kKCore:
        return KCoreOrdering(g);
      case OrderingKind::kCentrality:
        return CentralityOrdering(g);
    }
    throw std::invalid_argument("ComputeOrdering: unknown kind");
  }();
  if (telemetry != nullptr)
    telemetry->SetGauge("ordering.rounds", ordering.rounds);
  return ordering;
}

std::string OrderingSpecName(const OrderingSpec& spec) {
  switch (spec.kind) {
    case OrderingKind::kDegree:
      return "degree";
    case OrderingKind::kCore:
      return "core";
    case OrderingKind::kApproxCore:
      return "approx-core(eps=" + std::to_string(spec.epsilon) + ")";
    case OrderingKind::kKCore:
      return "kcore";
    case OrderingKind::kCentrality:
      return "centrality(iters=3)";
  }
  return "unknown";
}

OrderingSpec ParseOrderingSpec(const std::string& name, double eps) {
  if (name == "core") return {OrderingKind::kCore};
  if (name == "approx") return {OrderingKind::kApproxCore, eps};
  if (name == "kcore") return {OrderingKind::kKCore};
  if (name == "centrality") return {OrderingKind::kCentrality};
  if (name == "degree") return {OrderingKind::kDegree};
  throw std::runtime_error("unknown --ordering: " + name);
}

}  // namespace pivotscale

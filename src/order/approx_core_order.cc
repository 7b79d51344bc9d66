#include "order/approx_core_order.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <limits>
#include <vector>

#include "exec/executor.h"

namespace pivotscale {

namespace {

// A collect pass cuts the vertices into at most this many blocks, of at
// least kMinCollectBlock vertices each.
constexpr std::size_t kCollectBlocks = 64;
constexpr std::size_t kMinCollectBlock = 1024;

// Appends every u < n with keep(u) to `out`, in increasing order, in two
// passes over fixed blocks: count each block's kept ids, then write them
// at the block's prefix offset. What it allocates does not depend on
// which worker ran which block: per-worker vectors grown by push_back
// would land in the caller's heap or a helper's depending on how many
// chunks each worker took, so the caller's heap layout, and with it peak
// RSS, would depend on timing.
// `keep` must give the same answer in both passes.
template <typename Keep>
void CollectIds(std::size_t n, std::vector<NodeId>* out, Keep&& keep) {
  const std::size_t block = std::max(
      kMinCollectBlock, (n + kCollectBlocks - 1) / kCollectBlocks);
  const std::size_t blocks = (n + block - 1) / block;
  std::array<std::size_t, kCollectBlocks + 1> offset{};
  ParallelFor(blocks, ExecOptions{}, [&](std::size_t b) {
    const std::size_t end = std::min(n, (b + 1) * block);
    std::size_t kept = 0;
    for (std::size_t i = b * block; i < end; ++i)
      kept += keep(static_cast<NodeId>(i)) ? 1 : 0;
    offset[b + 1] = kept;
  });
  for (std::size_t b = 0; b < blocks; ++b) offset[b + 1] += offset[b];
  const std::size_t base = out->size();
  out->resize(base + offset[blocks]);
  ParallelFor(blocks, ExecOptions{}, [&](std::size_t b) {
    const std::size_t end = std::min(n, (b + 1) * block);
    NodeId* next = out->data() + base + offset[b];
    for (std::size_t i = b * block; i < end; ++i)
      if (keep(static_cast<NodeId>(i))) *next++ = static_cast<NodeId>(i);
  });
}

}  // namespace

Ordering ApproxCoreOrdering(const Graph& g, double epsilon) {
  const NodeId n = g.NumNodes();
  std::vector<std::int64_t> degree(n);
  std::vector<std::uint32_t> level(n, 0);
  std::vector<std::uint8_t> alive(n, 1);

  std::int64_t remaining_nodes = n;
  std::int64_t remaining_degree_sum = ParallelReduce(
      n, ExecOptions{}, std::int64_t{0},
      [&](std::int64_t& sum, std::size_t i) {
        const auto u = static_cast<NodeId>(i);
        degree[u] = static_cast<std::int64_t>(g.Degree(u));
        sum += degree[u];
      },
      [](std::int64_t& into, std::int64_t from) { into += from; });

  std::vector<NodeId> remove;
  remove.reserve(n);
  int round = 0;
  while (remaining_nodes > 0) {
    const double avg = static_cast<double>(remaining_degree_sum) /
                       static_cast<double>(remaining_nodes);
    const double threshold = (1.0 + epsilon) * avg;

    remove.clear();
    // Selection pass.
    CollectIds(n, &remove, [&](NodeId u) {
      return alive[u] != 0 &&
             static_cast<double>(degree[u]) < threshold;
    });

    // Progress guarantee: with eps < 0 the threshold can fall below the
    // minimum remaining degree (e.g. on regular graphs). Fall back to
    // removing all minimum-degree vertices, which is still a bulk peel.
    if (remove.empty()) {
      const std::int64_t min_degree = ParallelReduce(
          n, ExecOptions{}, std::numeric_limits<std::int64_t>::max(),
          [&](std::int64_t& min_so_far, std::size_t i) {
            const auto u = static_cast<NodeId>(i);
            if (alive[u]) min_so_far = std::min(min_so_far, degree[u]);
          },
          [](std::int64_t& into, std::int64_t from) {
            into = std::min(into, from);
          });
      CollectIds(n, &remove, [&](NodeId u) {
        return alive[u] != 0 && degree[u] == min_degree;
      });
    }

    // Removal pass: assign the round as the rank level, then update degrees
    // of surviving neighbors. The degree updates use atomics because two
    // removed vertices can share a surviving neighbor.
    for (NodeId u : remove) {
      level[u] = static_cast<std::uint32_t>(round);
      alive[u] = 0;
    }
    // Degree-sum bookkeeping: removing R drops sum(deg(u) for u in R) plus
    // one decrement per R-survivor edge (R-R edges are fully covered by the
    // first term since both endpoints contribute).
    struct Deltas {
      std::int64_t removed_degree = 0;
      std::int64_t survivor_decrements = 0;
    };
    ExecOptions removal_options;
    removal_options.grain = 64;
    const Deltas deltas = ParallelReduce(
        remove.size(), removal_options, Deltas{},
        [&](Deltas& d, std::size_t i) {
          const NodeId u = remove[i];
          d.removed_degree += degree[u];
          for (NodeId v : g.Neighbors(u)) {
            if (!alive[v]) continue;
            std::atomic_ref<std::int64_t>(degree[v])
                .fetch_sub(1, std::memory_order_relaxed);
            ++d.survivor_decrements;
          }
        },
        [](Deltas& into, const Deltas& from) {
          into.removed_degree += from.removed_degree;
          into.survivor_decrements += from.survivor_decrements;
        });
    remaining_degree_sum -=
        deltas.removed_degree + deltas.survivor_decrements;
    remaining_nodes -= static_cast<std::int64_t>(remove.size());
    ++round;
  }

  // Composite rank key: (round, original degree, id) — the tiebreaker the
  // paper prescribes for non-unique round-based rankings.
  std::vector<std::uint64_t> keys(n);
  ParallelFor(n, ExecOptions{}, [&](std::size_t i) {
    const auto u = static_cast<NodeId>(i);
    keys[u] = PackKey(level[u], g.Degree(u));
  });

  return {"approx-core(eps=" + std::to_string(epsilon) + ")",
          RanksFromKeys(keys), round};
}

}  // namespace pivotscale

#include "order/approx_core_order.h"

#include <atomic>
#include <limits>
#include <vector>

#include "exec/executor.h"

namespace pivotscale {

namespace {

// Thread-local collect + worker-order merge; on one core this degenerates
// to a plain loop, but the structure mirrors the algorithm.
template <typename Keep>
void CollectIds(std::size_t n, std::vector<NodeId>* out, Keep&& keep) {
  ExecOptions exec_options;
  ParallelForWorkers(
      n, exec_options, [](int) { return std::vector<NodeId>(); },
      [&keep](std::vector<NodeId>& local, std::size_t i) {
        const auto u = static_cast<NodeId>(i);
        if (keep(u)) local.push_back(u);
      },
      [out](std::vector<NodeId>& local) {
        out->insert(out->end(), local.begin(), local.end());
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

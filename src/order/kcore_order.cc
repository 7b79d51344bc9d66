#include "order/kcore_order.h"

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "exec/executor.h"

namespace pivotscale {

namespace {

// Frontier collection: every worker gathers candidates into a private
// vector (its reduction slot); the merge concatenates in worker order, so
// the frontier layout is deterministic for a fixed team size.
template <typename Keep>
void CollectFrontier(std::size_t n, std::vector<NodeId>* frontier,
                     Keep&& keep) {
  ExecOptions exec_options;
  ParallelForWorkers(
      n, exec_options, [](int) { return std::vector<NodeId>(); },
      [&keep](std::vector<NodeId>& local, std::size_t i) {
        if (NodeId v; keep(i, &v)) local.push_back(v);
      },
      [frontier](std::vector<NodeId>& local) {
        frontier->insert(frontier->end(), local.begin(), local.end());
      });
}

// The level-synchronous peel; `*peel_rounds` receives its sub-round count.
std::vector<EdgeId> Peel(const Graph& g, int* peel_rounds) {
  const NodeId n = g.NumNodes();
  std::vector<std::int64_t> degree(n);
  ParallelFor(n, ExecOptions{}, [&](std::size_t u) {
    degree[u] = static_cast<std::int64_t>(g.Degree(static_cast<NodeId>(u)));
  });

  std::vector<EdgeId> coreness(n, 0);
  std::vector<std::uint8_t> alive(n, 1);
  std::vector<NodeId> frontier, next_frontier;

  NodeId removed_total = 0;
  std::int64_t level = 0;
  int rounds = 0;
  while (removed_total < n) {
    // Collect everything peelable at this level, then cascade within the
    // level (removing a degree-<=level vertex can push neighbors below the
    // threshold in the same level) — the PKC processing structure.
    frontier.clear();
    CollectFrontier(n, &frontier, [&](std::size_t i, NodeId* out) {
      const auto u = static_cast<NodeId>(i);
      *out = u;
      return alive[u] != 0 && degree[u] <= level;
    });

    ++rounds;  // the level-collection pass
    while (!frontier.empty()) {
      ++rounds;  // each cascade pass synchronizes
      for (NodeId u : frontier) {
        alive[u] = 0;
        coreness[u] = static_cast<EdgeId>(level);
      }
      removed_total += static_cast<NodeId>(frontier.size());

      next_frontier.clear();
      ExecOptions cascade_options;
      cascade_options.grain = 64;
      ParallelForWorkers(
          frontier.size(), cascade_options,
          [](int) { return std::vector<NodeId>(); },
          [&](std::vector<NodeId>& local, std::size_t i) {
            for (NodeId v : g.Neighbors(frontier[i])) {
              if (!alive[v]) continue;
              // Two frontier vertices can share the neighbor, hence the
              // atomic decrement. Exactly the decrement that lands on
              // `level` crosses the peelable threshold, so each vertex
              // enqueues once.
              const std::int64_t after =
                  std::atomic_ref<std::int64_t>(degree[v])
                      .fetch_sub(1, std::memory_order_relaxed) -
                  1;
              if (after == level) local.push_back(v);
            }
          },
          [&next_frontier](std::vector<NodeId>& local) {
            next_frontier.insert(next_frontier.end(), local.begin(),
                                 local.end());
          });
      std::swap(frontier, next_frontier);
    }
    ++level;
  }
  *peel_rounds = rounds;
  return coreness;
}

}  // namespace

std::vector<EdgeId> CoreDecomposition(const Graph& g) {
  int rounds = 0;
  return Peel(g, &rounds);
}

Ordering KCoreOrdering(const Graph& g) {
  const NodeId n = g.NumNodes();
  int rounds = 0;
  const std::vector<EdgeId> coreness = Peel(g, &rounds);
  std::vector<std::uint64_t> keys(n);
  ParallelFor(n, ExecOptions{}, [&](std::size_t i) {
    const auto u = static_cast<NodeId>(i);
    keys[u] = PackKey(coreness[u], g.Degree(u));
  });
  return {"kcore", RanksFromKeys(keys), rounds};
}

}  // namespace pivotscale

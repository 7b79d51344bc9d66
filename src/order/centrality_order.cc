#include "order/centrality_order.h"

#include <algorithm>
#include <cmath>

#include "exec/executor.h"

namespace pivotscale {

constexpr int kIterations = 3;

Ordering CentralityOrdering(const Graph& g) {
  const NodeId n = g.NumNodes();
  std::vector<double> score(n, 1.0), next(n, 0.0);

  for (int it = 0; it < kIterations; ++it) {
    ExecOptions sum_options;
    sum_options.grain = 1024;
    const double max_score = ParallelReduce(
        n, sum_options, 0.0,
        [&](double& max_so_far, std::size_t i) {
          const auto u = static_cast<NodeId>(i);
          double sum = 0.0;
          for (NodeId v : g.Neighbors(u)) sum += score[v];
          next[u] = sum;
          max_so_far = std::max(max_so_far, sum);
        },
        [](double& into, double from) { into = std::max(into, from); });
    // Rescale so repeated iterations cannot overflow; relative order is
    // unaffected, which is all the ranking needs.
    const double inv = max_score > 0 ? 1.0 / max_score : 1.0;
    ParallelFor(n, ExecOptions{}, [&](std::size_t u) { next[u] *= inv; });
    std::swap(score, next);
  }

  // Quantize score to 32 bits for the packed key; tiebreak by original
  // degree then id like every other approximation in this suite.
  std::vector<std::uint64_t> keys(n);
  ParallelFor(n, ExecOptions{}, [&](std::size_t i) {
    const auto u = static_cast<NodeId>(i);
    const auto q = static_cast<std::uint64_t>(
        std::min(1.0, std::max(0.0, score[u])) * 4294967295.0);
    keys[u] = (q << 24) |
              std::min<std::uint64_t>(g.Degree(u),
                                      (std::uint64_t{1} << 24) - 1);
  });
  return {"centrality(iters=3)", RanksFromKeys(keys), kIterations};
}

}  // namespace pivotscale

#include "pivot/maximal.h"

#include <algorithm>

#include "exec/executor.h"
#include "graph/dag.h"
#include "order/core_order.h"
#include "util/flat_hash.h"
#include "util/timer.h"

namespace pivotscale {

namespace {

// One worker's Bron-Kerbosch state over the subgraph induced on a root's
// full neighborhood. Candidate (P) and excluded (X) sets are sorted vectors
// of local ids; children are built by sorted intersection with a member's
// local adjacency, so every operation is linear in the sets involved.
class BkWorker {
 public:
  explicit BkWorker(const Graph& g) : g_(g) {}

  // Enumerates all maximal cliques whose lowest-core-rank member is root.
  // `ranks` is the core order; `report` receives (clique size) for counting
  // or the member list via clique_ for listing.
  template <typename Report>
  void ProcessRoot(NodeId root, std::span<const NodeId> ranks,
                   Report&& report) {
    const auto nbrs = g_.Neighbors(root);
    const std::size_t n = nbrs.size();
    if (n == 0) {
      // Isolated vertex: itself a maximal 1-clique.
      clique_.assign(1, root);
      report(std::span<const NodeId>(clique_));
      return;
    }

    // Local id space over the neighborhood.
    remap_.Clear();
    remap_.Reserve(static_cast<std::uint32_t>(n));
    orig_.assign(nbrs.begin(), nbrs.end());
    for (std::uint32_t local = 0; local < n; ++local)
      remap_.Insert(orig_[local], local);

    if (adj_.size() < n) adj_.resize(n);
    for (std::size_t u = 0; u < n; ++u) adj_[u].clear();
    for (std::uint32_t a = 0; a < n; ++a) {
      for (NodeId b : g_.Neighbors(orig_[a])) {
        const std::uint32_t local = remap_.Find(b);
        if (local != FlatHashMap::kNotFound) adj_[a].push_back(local);
      }
      std::sort(adj_[a].begin(), adj_[a].end());
    }

    // P = neighbors after root in core order; X = before. Any clique with
    // an earlier-ranked member is found from that member's root instead.
    std::vector<std::uint32_t> p, x;
    for (std::uint32_t local = 0; local < n; ++local) {
      if (ranks[orig_[local]] > ranks[root])
        p.push_back(local);
      else
        x.push_back(local);
    }

    clique_.assign(1, root);
    Recurse(p, x, report);
    clique_.clear();
  }

 private:
  template <typename Report>
  void Recurse(const std::vector<std::uint32_t>& p,
               const std::vector<std::uint32_t>& x, Report&& report) {
    if (p.empty()) {
      if (x.empty()) report(std::span<const NodeId>(clique_));
      return;
    }

    // Pivot: the member of P u X with the most neighbors in P minimizes
    // the branch count (Tomita et al.).
    std::uint32_t pivot = p[0];
    std::size_t pivot_deg = 0;
    bool first = true;
    for (const auto* set : {&p, &x}) {
      for (std::uint32_t u : *set) {
        const std::size_t d = SortedIntersectionSize(adj_[u], p);
        if (first || d > pivot_deg) {
          pivot = u;
          pivot_deg = d;
          first = false;
        }
      }
    }

    // Branch over P \ N(pivot), moving each processed vertex to X.
    std::vector<std::uint32_t> branches;
    std::set_difference(p.begin(), p.end(), adj_[pivot].begin(),
                        adj_[pivot].end(), std::back_inserter(branches));
    std::vector<std::uint32_t> cur_p = p, cur_x = x;
    std::vector<std::uint32_t> child_p, child_x;
    for (std::uint32_t w : branches) {
      child_p.clear();
      child_x.clear();
      std::set_intersection(cur_p.begin(), cur_p.end(), adj_[w].begin(),
                            adj_[w].end(), std::back_inserter(child_p));
      std::set_intersection(cur_x.begin(), cur_x.end(), adj_[w].begin(),
                            adj_[w].end(), std::back_inserter(child_x));
      clique_.push_back(orig_[w]);
      Recurse(child_p, child_x, report);
      clique_.pop_back();
      // w: P -> X (both stay sorted).
      cur_p.erase(std::lower_bound(cur_p.begin(), cur_p.end(), w));
      cur_x.insert(std::lower_bound(cur_x.begin(), cur_x.end(), w), w);
    }
  }

  static std::size_t SortedIntersectionSize(
      const std::vector<std::uint32_t>& a,
      const std::vector<std::uint32_t>& b) {
    std::size_t count = 0, i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (a[i] > b[j]) {
        ++j;
      } else {
        ++count;
        ++i;
        ++j;
      }
    }
    return count;
  }

  const Graph& g_;
  FlatHashMap remap_;
  std::vector<NodeId> orig_;
  std::vector<std::vector<std::uint32_t>> adj_;
  std::vector<NodeId> clique_;
};

}  // namespace

MaximalCliqueStats CountMaximalCliques(const Graph& g) {
  Timer timer;
  const Ordering core = CoreOrdering(g);
  const NodeId n = g.NumNodes();

  MaximalCliqueStats stats;
  stats.by_size.assign(g.MaxDegree() + 2, BigCount{});

  // Per-worker reduction slot: the BK state plus this worker's partial
  // totals, merged serially after the region.
  struct Worker {
    explicit Worker(const Graph& graph, std::size_t sizes)
        : bk(graph), by_size(sizes, BigCount{}) {}
    BkWorker bk;
    BigCount total{};
    std::size_t largest = 0;
    std::vector<BigCount> by_size;
  };

  ExecOptions exec_options;
  exec_options.cost = [&g](std::size_t v) {
    return static_cast<double>(g.Degree(static_cast<NodeId>(v)) + 1);
  };
  ParallelForWorkers(
      n, exec_options,
      [&](int) { return Worker(g, stats.by_size.size()); },
      [&core](Worker& w, std::size_t v) {
        w.bk.ProcessRoot(static_cast<NodeId>(v), core.ranks,
                         [&w](std::span<const NodeId> clique) {
                           w.total += BigCount{1};
                           w.largest = std::max(w.largest, clique.size());
                           w.by_size[clique.size()] += BigCount{1};
                         });
      },
      [&stats](Worker& w) {
        stats.total += w.total;
        stats.largest = std::max(stats.largest, w.largest);
        for (std::size_t s = 0; s < w.by_size.size(); ++s)
          stats.by_size[s] += w.by_size[s];
      });
  stats.seconds = timer.Seconds();
  return stats;
}

void ForEachMaximalClique(
    const Graph& g, const std::function<void(std::span<const NodeId>)>& fn) {
  const Ordering core = CoreOrdering(g);
  BkWorker worker(g);
  for (NodeId v = 0; v < g.NumNodes(); ++v)
    worker.ProcessRoot(v, core.ranks, fn);
}

std::size_t CliqueNumber(const Graph& g) {
  return CountMaximalCliques(g).largest;
}

}  // namespace pivotscale
